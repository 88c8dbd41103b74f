"""Online detection must equal offline search, exactly once."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif, paper_motifs
from repro.core.streaming import StreamingDetector
from repro.datasets.fixtures import figure7_match_graph
from repro.graph.interaction import InteractionGraph


def random_stream(seed, nodes=6, events=60, horizon=60):
    rng = random.Random(seed)
    stream = []
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        stream.append((src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5)))
    stream.sort(key=lambda e: e[2])
    return stream


def offline_keys(stream, motif):
    graph = InteractionGraph.from_tuples(stream)
    result = FlowMotifEngine(graph).find_instances(motif)
    return {i.canonical_key() for i in result.instances}


def round_trip(detector):
    """Checkpoint through real JSON and restore, like a resumed process."""
    return StreamingDetector.restore(
        json.loads(json.dumps(detector.checkpoint()))
    )


def maybe_resume(detector, resumed):
    return round_trip(detector) if resumed else detector


#: ``resumed`` replays a test with the detector checkpointed and restored
#: at every step, so each cut point of the stream is also a resume point.
RESUMED = pytest.mark.parametrize(
    "resumed", [False, True], ids=["live", "resumed"]
)


def streamed_keys(stream, motif, poll_every, resumed=False):
    detector = StreamingDetector(motif)
    emitted = []
    for i, (src, dst, t, f) in enumerate(stream):
        detector.add(src, dst, t, f)
        detector = maybe_resume(detector, resumed)
        if poll_every and i % poll_every == 0:
            emitted.extend(detector.poll())
    emitted.extend(detector.flush())
    keys = [i.canonical_key() for i in emitted]
    assert len(keys) == len(set(keys)), "duplicate emission"
    return set(keys)


class TestStreamingEqualsOffline:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("poll_every", [1, 7, 0])
    @RESUMED
    def test_chain(self, seed, poll_every, resumed):
        stream = random_stream(seed)
        motif = Motif.chain(3, delta=12, phi=2)
        assert streamed_keys(
            stream, motif, poll_every, resumed
        ) == offline_keys(stream, motif)

    @pytest.mark.parametrize("seed", range(4))
    @RESUMED
    def test_cycle(self, seed, resumed):
        stream = random_stream(seed, nodes=5)
        motif = Motif.cycle(3, delta=15, phi=0)
        assert streamed_keys(stream, motif, 5, resumed) == offline_keys(
            stream, motif
        )

    def test_catalog_small_stream(self):
        stream = random_stream(42, nodes=8, events=80)
        for name, motif in paper_motifs(delta=12, phi=1).items():
            assert streamed_keys(stream, motif, 10) == offline_keys(
                stream, motif
            ), name

    def test_figure7_stream(self):
        stream = sorted(
            ((it.src, it.dst, it.time, it.flow)
             for it in figure7_match_graph().interactions()),
            key=lambda e: e[2],
        )
        motif = Motif.cycle(3, delta=10, phi=0)
        assert streamed_keys(stream, motif, 2) == offline_keys(stream, motif)
        assert len(streamed_keys(stream, motif, 2)) == 6


class TestStreamingBehaviour:
    def test_poll_before_window_closes_is_empty(self):
        detector = StreamingDetector(Motif.chain(3, delta=10, phi=0))
        detector.add("a", "b", 1, 5)
        detector.add("b", "c", 3, 4)
        assert detector.poll() == []  # window [1, 11] still open
        detector.add("z", "w", 50, 1)
        assert len(detector.poll()) == 1
        assert detector.emitted_count == 1

    def test_flush_without_later_events(self):
        detector = StreamingDetector(Motif.chain(3, delta=10, phi=0))
        detector.add("a", "b", 1, 5)
        detector.add("b", "c", 3, 4)
        flushed = detector.flush()
        assert len(flushed) == 1
        assert flushed[0].flow == 4

    def test_out_of_order_rejected(self):
        detector = StreamingDetector(Motif.chain(2, delta=10))
        detector.add("a", "b", 5, 1)
        with pytest.raises(ValueError, match="out-of-order"):
            detector.add("a", "b", 4, 1)

    def test_tie_with_watermark_allowed(self):
        detector = StreamingDetector(Motif.chain(2, delta=10))
        detector.add("a", "b", 5, 1)
        detector.add("c", "d", 5, 1)  # equal timestamps are fine
        assert detector.watermark == 5

    def test_window_not_closed_at_exact_watermark(self):
        """An event at exactly window end could still arrive (tied times);
        the window must stay open until the watermark passes it."""
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1, 2)
        detector.add("x", "y", 5, 1)  # watermark == window end of [1, 5]
        assert detector.poll() == []
        detector.add("a", "b", 5, 3)  # lands inside [1, 5]!
        detector.add("z", "w", 20, 1)
        [instance] = [
            i for i in detector.poll() if i.vertex_map == ("a", "b")
        ]
        assert instance.flow == 5.0  # both events aggregated

    def test_empty_detector(self):
        detector = StreamingDetector(Motif.chain(3, delta=10))
        assert detector.poll() == []
        assert detector.flush() == []

    def test_invalid_flow_rejected(self):
        detector = StreamingDetector(Motif.chain(2, delta=10))
        with pytest.raises(ValueError, match="positive"):
            detector.add("a", "b", 1, 0)


class TestIncrementalContract:
    """The incremental detector's contract: adds grow the graph in place,
    polls pop only matches with ready windows, nothing is recomputed from
    scratch."""

    def _fed_detector(self):
        detector = StreamingDetector(Motif.chain(3, delta=5, phi=0))
        detector.add("a", "b", 1, 2)
        detector.add("b", "c", 3, 4)
        detector.add("x", "y", 50, 1)
        return detector

    @staticmethod
    def _heap_pops(detector):
        return detector.metrics().snapshot()["counters"]["stream.heap_pops"]

    def test_noop_polls_touch_no_match(self):
        detector = self._fed_detector()
        first = detector.poll()
        assert len(first) == 1
        pops = self._heap_pops(detector)
        for _ in range(3):
            assert detector.poll() == []  # nothing new: exactly-once holds
        assert self._heap_pops(detector) == pops

    def test_interleaved_adds_and_polls_emit_incrementally(self):
        """Every add followed by a poll: each poll pays only for the
        matches whose windows closed, and the same graph keeps growing."""
        detector = self._fed_detector()
        detector.poll()
        graph = detector._graph
        emitted = []
        for t in range(60, 90, 3):
            detector.add("a", "b", t, 2)
            detector.add("b", "c", t + 1, 3)
            emitted.extend(detector.poll())
        emitted.extend(detector.flush())
        assert detector._graph is graph
        assert any(i.vertex_map == ("a", "b", "c") for i in emitted)

    def test_single_detector_implementation(self):
        """There is one detector: no mode switch, no rebuild counter and
        no deprecated ``stats()`` dict adapter."""
        with pytest.raises(TypeError, match="mode"):
            StreamingDetector(Motif.chain(2, delta=1), mode="rebuild")
        detector = self._fed_detector()
        assert not hasattr(detector, "rebuild_count")
        assert not hasattr(detector, "stats")
        detector.poll()
        assert "stream.rebuilds" not in detector.metrics().snapshot()["counters"]

    def test_metrics_counters(self):
        detector = self._fed_detector()
        detector.poll()
        snapshot = detector.metrics().snapshot()
        assert snapshot["counters"]["stream.events"] == 3
        assert snapshot["gauges"]["stream.pairs"] == 3
        assert snapshot["counters"]["stream.emitted"] == 1
        assert detector.match_count >= 1
        assert detector.num_events == 3

    def test_emissions_identical_with_redundant_polls(self):
        """Interleaving no-op polls must not change the emitted set."""
        stream = random_stream(seed=11)
        motif = Motif.chain(3, delta=8, phi=0)
        baseline = streamed_keys(stream, motif, poll_every=7)
        detector = StreamingDetector(motif)
        chatty = set()
        for i, (src, dst, t, flow) in enumerate(stream):
            detector.add(src, dst, t, flow)
            if i % 7 == 0:
                for _ in range(3):  # redundant polls between adds
                    chatty.update(i.canonical_key() for i in detector.poll())
        chatty.update(i.canonical_key() for i in detector.flush())
        assert chatty == baseline


class TestStreamingEdgeCases:
    """Boundary behaviour around the watermark, horizons and anchors."""

    @RESUMED
    def test_duplicate_timestamps_at_watermark(self, resumed):
        """Events tied with the watermark must still land inside any open
        window; closing happens only when the watermark strictly passes."""
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1, 2)
        detector.add("a", "b", 5, 3)   # at window end of [1, 5]
        detector.add("c", "d", 5, 1)   # tied with the watermark
        detector = maybe_resume(detector, resumed)
        assert detector.poll() == []   # [1, 5] not closed: more t=5 possible
        detector = maybe_resume(detector, resumed)
        detector.add("a", "b", 5, 4)   # another tie, still inside [1, 5]
        detector.add("z", "w", 20, 1)
        detector = maybe_resume(detector, resumed)
        emitted = [
            i for i in detector.poll() if i.vertex_map == ("a", "b")
        ]
        flows = sorted(i.flow for i in emitted)
        assert flows[-1] == 9.0  # all three t<=5 events aggregated

    @RESUMED
    def test_window_closing_exactly_at_horizon_stays_open(self, resumed):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1, 2)
        detector.add("x", "y", 5, 1)   # watermark == window end of [1, 5]
        detector = maybe_resume(detector, resumed)
        assert detector.poll() == []
        detector = maybe_resume(detector, resumed)
        detector.add("a", "b", 5, 3)   # lands inside [1, 5]!
        detector.add("z", "w", 20, 1)
        detector = maybe_resume(detector, resumed)
        [instance] = [
            i for i in detector.poll() if i.vertex_map == ("a", "b")
        ]
        assert instance.flow == 5.0
        # flush() closes the remaining windows exactly once.
        detector = maybe_resume(detector, resumed)
        remaining = detector.flush()
        keys = [i.canonical_key() for i in remaining]
        assert len(keys) == len(set(keys))

    @RESUMED
    def test_poll_before_any_add(self, resumed):
        detector = StreamingDetector(Motif.chain(3, delta=10, phi=0))
        detector = maybe_resume(detector, resumed)
        assert detector.poll() == []
        detector = maybe_resume(detector, resumed)
        assert detector.flush() == []

    @RESUMED
    def test_equal_timestamp_anchor_dedup(self, resumed):
        """Several first-edge events at one timestamp anchor one window —
        emissions must not duplicate."""
        detector = StreamingDetector(Motif.chain(2, delta=3, phi=0))
        detector.add("a", "b", 2, 1)
        detector.add("a", "b", 2, 2)
        detector.add("a", "b", 2, 4)
        detector.add("z", "w", 50, 1)
        detector = maybe_resume(detector, resumed)
        emitted = detector.poll()
        keys = [i.canonical_key() for i in emitted]
        assert len(keys) == len(set(keys))
        [instance] = [i for i in emitted if i.vertex_map == ("a", "b")]
        assert instance.flow == 7.0
        detector = maybe_resume(detector, resumed)
        assert detector.poll() == []  # exactly once

    def test_add_after_flush_rejected(self):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1, 2)
        detector.flush()
        with pytest.raises(ValueError, match="flushed"):
            detector.add("a", "b", 9, 1)
        assert detector.flush() == []  # idempotent

    def test_new_pair_after_warmup_discovers_matches(self):
        """A pair first seen late must still create its matches."""
        detector = StreamingDetector(Motif.chain(3, delta=8, phi=0))
        detector.add("a", "b", 1, 2)
        detector.add("q", "r", 30, 1)
        detector.poll()
        before = detector.match_count
        detector.add("b", "c", 31, 5)  # completes a->b->c structurally
        assert detector.match_count > before
        detector.add("a", "b", 40, 1)
        detector.add("b", "c", 42, 6)
        detector.add("z", "w", 99, 1)
        emitted = detector.poll()
        assert any(i.vertex_map == ("a", "b", "c") for i in emitted)


class TestEmissionBufferRecovery:
    def test_instances_survive_an_aborted_poll(self):
        """An exception inside poll() (e.g. Ctrl-C in a live session) must
        not lose instances whose progress cursor already advanced — they
        stay buffered and come out of the next poll/flush."""
        detector = StreamingDetector(Motif.chain(2, delta=2, phi=0))
        detector.add("a", "b", 1, 5)
        detector.add("z", "w", 50, 1)

        class Boom(Exception):
            pass

        matcher = detector._matcher
        original = matcher.emit_closed

        def exploding(horizon, sink):
            original(horizon, sink)
            raise Boom()

        matcher.emit_closed = exploding
        with pytest.raises(Boom):
            detector.poll()
        matcher.emit_closed = original
        recovered = detector.flush()
        assert any(i.vertex_map == ("a", "b") for i in recovered)
        keys = [i.canonical_key() for i in recovered]
        assert len(keys) == len(set(keys))  # still exactly once

"""Streaming durability: checkpoint → restore → continue ≡ uninterrupted.

Every round-trip test serializes through ``json.dumps``/``json.loads`` —
a checkpoint that only survives in-process dict form is worthless for
crash recovery.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.core.streaming import StreamingDetector
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph
from repro.resilience import reorder_within_slack
from repro.resilience.checkpoint import (
    FORMAT,
    VERSION,
    CheckpointError,
    load_checkpoint,
    restore_detector,
)


def random_stream(rng, nodes=6, events=60, horizon=60):
    stream = []
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        stream.append((src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5)))
    stream.sort(key=lambda e: e[2])
    return stream


def _drive(detector, stream, poll_every=5):
    emitted = []
    for i, (src, dst, t, f) in enumerate(stream):
        detector.add(src, dst, t, f)
        if poll_every and i % poll_every == 0:
            emitted.extend(detector.poll())
    return emitted


def _round_trip(detector):
    """Checkpoint through real JSON, like the CLI does."""
    return StreamingDetector.restore(
        json.loads(json.dumps(detector.checkpoint()))
    )


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


class TestRoundTripEquivalence:
    @pytest.mark.parametrize("poll_every", [1, 5])
    @pytest.mark.parametrize("cut", [1, 20, 59])
    def test_interrupted_equals_uninterrupted(
        self, cut, poll_every, base_seed
    ):
        rng = random.Random(base_seed + cut)
        stream = random_stream(rng)
        motif = Motif.chain(3, delta=12, phi=3)

        whole = StreamingDetector(motif)
        expected = _drive(whole, stream, poll_every) + whole.flush()

        first = StreamingDetector(motif)
        emitted = _drive(first, stream[:cut], poll_every)
        resumed = _round_trip(first)
        emitted += _drive(resumed, stream[cut:], poll_every) + resumed.flush()

        assert _keys(emitted) == _keys(expected)
        # ...and both agree with offline search.
        offline = FlowMotifEngine(
            InteractionGraph.from_tuples(stream)
        ).find_instances(motif)
        assert set(_keys(emitted)) == {
            i.canonical_key() for i in offline.instances
        }

    @pytest.mark.parametrize("poll_every", [1, 5])
    def test_round_trip_with_reorder_buffer_pending(
        self, poll_every, base_seed
    ):
        """A checkpoint taken while events sit in the slack buffer must
        carry them: they have been accepted, losing them is data loss."""
        rng = random.Random(base_seed)
        stream = random_stream(rng)
        slack = 6.0
        perturbed = reorder_within_slack(stream, slack, rng)
        motif = Motif.chain(2, delta=8, phi=2)

        first = StreamingDetector(motif, slack=slack)
        emitted = _drive(first, perturbed[:30], poll_every)
        assert first.pending_count > 0  # the interesting precondition
        resumed = _round_trip(first)
        assert resumed.pending_count == first.pending_count
        emitted += _drive(resumed, perturbed[30:], poll_every)
        emitted += resumed.flush()

        offline = FlowMotifEngine(
            InteractionGraph.from_tuples(stream)
        ).find_instances(motif)
        assert set(_keys(emitted)) == {
            i.canonical_key() for i in offline.instances
        }

    def test_double_checkpoint_is_stable(self, base_seed):
        rng = random.Random(base_seed)
        stream = random_stream(rng, events=30)
        detector = StreamingDetector(Motif.chain(2, delta=8, phi=1))
        _drive(detector, stream)
        once = _round_trip(detector)
        twice = _round_trip(once)
        assert _keys(once.flush()) == _keys(twice.flush())


    def test_checkpoint_after_new_pair_lists_it_in_order(self, base_seed):
        """A checkpoint taken after a new pair arrives must carry that pair
        in from-scratch series order, not a cached pre-append order."""
        rng = random.Random(base_seed)
        stream = random_stream(rng, nodes=8)
        motif = Motif.chain(3, delta=12, phi=3)
        cut = 20
        seen = {(src, dst) for src, dst, _, _ in stream[:cut]}
        new_at = next(
            i for i in range(cut, len(stream)) if stream[i][:2] not in seen
        )
        new_pair = stream[new_at][:2]

        detector = StreamingDetector(motif)
        emitted = _drive(detector, stream[:cut])
        first = detector.checkpoint()
        emitted += _drive(detector, stream[cut : new_at + 1])
        second = json.loads(json.dumps(detector.checkpoint()))

        def pairs(state):
            return [(row[0], row[1]) for row in state["series"]]

        assert new_pair not in pairs(first)
        assert new_pair in pairs(second)
        from_scratch = TimeSeriesGraph(
            EdgeSeries(*row) for row in reversed(second["series"])
        )
        assert pairs(second) == [
            (s.src, s.dst) for s in from_scratch.all_series()
        ]

        resumed = StreamingDetector.restore(second)
        emitted += _drive(resumed, stream[new_at + 1 :]) + resumed.flush()
        offline = FlowMotifEngine(
            InteractionGraph.from_tuples(stream)
        ).find_instances(motif)
        assert set(_keys(emitted)) == {
            i.canonical_key() for i in offline.instances
        }


class TestStatePreservation:
    def _fed(self):
        detector = StreamingDetector(
            Motif.chain(2, delta=4, phi=0), late="drop", slack=2.0
        )
        detector.add("a", "b", 1.0, 2.0)
        detector.add("a", "b", 5.0, 2.0)
        detector.add("a", "b", 0.5, 2.0)  # late beyond slack: dropped
        detector.poll()
        return detector

    def test_counters_and_config_survive(self):
        detector = self._fed()
        resumed = _round_trip(detector)
        assert resumed.watermark == detector.watermark
        assert resumed.slack == detector.slack
        assert resumed.late == detector.late
        assert resumed.late_dropped == detector.late_dropped == 1
        assert resumed.emitted_count == detector.emitted_count
        assert resumed.num_events == detector.num_events

    def test_no_duplicate_emissions_after_restore(self):
        """Instances emitted before the checkpoint must not be emitted
        again by the restored detector."""
        motif = Motif.chain(2, delta=4, phi=0)
        detector = StreamingDetector(motif)
        detector.add("a", "b", 1.0, 2.0)
        detector.add("z", "w", 50.0, 1.0)  # pushes the watermark far out
        first = detector.poll()
        assert first  # the a->b window closed and emitted
        resumed = _round_trip(detector)
        later = resumed.poll() + resumed.flush()
        # The open z->w window may still emit, but nothing already
        # emitted before the checkpoint may appear again.
        assert not set(_keys(first)) & set(_keys(later))

    def test_flushed_detector_stays_flushed(self):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1.0, 2.0)
        detector.flush()
        resumed = _round_trip(detector)
        with pytest.raises(ValueError, match="flushed"):
            resumed.add("a", "b", 2.0, 1.0)

    def test_checkpoint_is_plain_json(self, base_seed):
        rng = random.Random(base_seed)
        detector = StreamingDetector(Motif.chain(3, delta=10, phi=2))
        _drive(detector, random_stream(rng, events=40))
        payload = json.dumps(detector.checkpoint())
        assert "-Infinity" not in payload and "Infinity" not in payload
        assert json.loads(payload)["format"] == FORMAT


#: Real-valued flows with a timestamp tie; the checkpoint below was taken
#: after the first nine events, polling after every third.
LEGACY_STREAM = [
    ("a", "b", 1.0, 0.1), ("b", "c", 2.0, 0.2), ("b", "c", 2.0, 0.3),
    ("a", "b", 4.0, 0.3), ("b", "c", 5.0, 0.1), ("c", "a", 6.0, 0.4),
    ("a", "b", 9.0, 0.2), ("b", "c", 11.0, 0.3), ("x", "y", 14.0, 1.0),
    ("a", "b", 15.0, 0.5), ("b", "c", 16.0, 0.2), ("b", "c", 18.0, 0.1),
    ("c", "a", 19.0, 0.3), ("x", "y", 30.0, 1.0),
]

#: A version-1 checkpoint as written by the removed rebuild-on-poll
#: detector mode (note ``mode`` and ``rebuilds``), mid-stream.
LEGACY_REBUILD_CHECKPOINT = {
    "format": "repro-streaming-checkpoint", "version": 1,
    "motif": {"path": [0, 1, 2], "delta": 5.0, "phi": 0.3, "name": "M(3,2)"},
    "delta": 5.0, "phi": 0.3, "mode": "rebuild", "slack": 0.0,
    "late": "raise", "watermark": 14.0, "emitted": 1, "rebuilds": 3,
    "flushed": False, "late_dropped": 0, "seq": 0, "pending": [],
    "series": [
        ["a", "b", [1.0, 4.0, 9.0], [0.1, 0.3, 0.2]],
        ["b", "c", [2.0, 2.0, 5.0, 11.0], [0.2, 0.3, 0.1, 0.3]],
        ["c", "a", [6.0], [0.4]],
        ["x", "y", [14.0], [1.0]],
    ],
    "progress": [
        [["a", "b", "c"], [["a", "b"], ["b", "c"]], 4.0, 5.0],
        [["b", "c", "a"], [["b", "c"], ["c", "a"]], 5.0, 6.0],
        [["c", "a", "b"], [["c", "a"], ["a", "b"]], 6.0, 9.0],
    ],
    "out_buffer": [],
}

#: Canonical key of the one instance emitted before that checkpoint.
LEGACY_PRE_EMITTED = (
    ("b", "c", "a"),
    (((2.0, 0.2), (2.0, 0.3), (5.0, 0.1)), ((6.0, 0.4),)),
)


class TestLegacyCheckpoints:
    def test_rebuild_mode_checkpoint_resumes_incrementally(self):
        """A version-1 checkpoint from rebuild mode continues on the
        incremental detector: resumed emissions plus the one emitted
        before the checkpoint equal offline search, exactly once."""
        state = json.loads(json.dumps(LEGACY_REBUILD_CHECKPOINT))
        resumed = restore_detector(state)
        assert resumed.emitted_count == 1
        emitted = _drive(resumed, LEGACY_STREAM[9:], poll_every=2)
        emitted += resumed.flush()
        motif = Motif.chain(3, delta=5, phi=0.3)
        offline = FlowMotifEngine(
            InteractionGraph.from_tuples(LEGACY_STREAM)
        ).find_instances(motif)
        streamed = Counter(_keys(emitted))
        streamed[LEGACY_PRE_EMITTED] += 1
        assert streamed == Counter(_keys(offline.instances))

    def test_new_checkpoints_omit_mode_and_rebuilds(self):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1.0, 2.0)
        state = detector.checkpoint()
        assert state["version"] == VERSION == 1
        assert "mode" not in state and "rebuilds" not in state


class TestMalformedCheckpoints:
    def _valid(self):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0))
        detector.add("a", "b", 1.0, 2.0)
        return detector.checkpoint()

    def test_wrong_format_rejected(self):
        state = self._valid()
        state["format"] = "something-else"
        with pytest.raises(CheckpointError):
            restore_detector(state)

    def test_future_version_rejected(self):
        state = self._valid()
        state["version"] = VERSION + 1
        with pytest.raises(CheckpointError):
            restore_detector(state)

    def test_missing_keys_rejected(self):
        state = self._valid()
        del state["series"]
        with pytest.raises(CheckpointError):
            restore_detector(state)

    def test_garbage_rejected(self):
        with pytest.raises(CheckpointError):
            restore_detector({"hello": "world"})

    def test_truncated_payload_rejected(self):
        state = self._valid()
        state["motif"] = {"path": state["motif"]["path"]}
        with pytest.raises(CheckpointError):
            restore_detector(state)


class TestCorruptedCheckpointText:
    """Torn/rotted checkpoint *files* surface only CheckpointError.

    A crash mid-write leaves a truncated JSON document; bit rot leaves a
    scrambled one. Restoring through either must raise the typed error —
    never a raw ``json.JSONDecodeError``/``KeyError``/``TypeError`` from
    deeper in the stack.
    """

    def _valid_text(self) -> str:
        detector = StreamingDetector(Motif.chain(3, delta=10, phi=2))
        _drive(detector, random_stream(random.Random(13), events=30))
        return json.dumps(detector.checkpoint())

    def test_truncation_at_any_length_raises_typed_error(self):
        text = self._valid_text()
        # every 7th prefix plus the all-important near-complete tails
        cuts = list(range(0, len(text), 7)) + [len(text) - 2, len(text) - 1]
        for cut in cuts:
            with pytest.raises(CheckpointError):
                StreamingDetector.restore(load_checkpoint(text[:cut]))

    def test_corrupted_byte_raises_typed_error_or_restores(self):
        text = self._valid_text()
        rng = random.Random(31)
        for _ in range(60):
            index = rng.randrange(len(text))
            mangled = text[:index] + chr(33 + rng.randrange(90)) + text[index + 1:]
            try:
                restored = StreamingDetector.restore(load_checkpoint(mangled))
            except CheckpointError:
                continue  # typed rejection: the contract
            # a flip inside a value can legitimately still parse — but it
            # must then restore to a *working* detector, never crash later
            restored.poll()

    def test_not_json_raises_typed_error(self):
        for garbage in ("", "{", "nul", "\x00\xff", "[1, 2", '{"a": '):
            with pytest.raises(CheckpointError, match="not valid JSON"):
                load_checkpoint(garbage)

    def test_json_but_not_a_checkpoint_raises_typed_error(self):
        for payload in ("[]", "42", '"hi"', "{}", '{"format": "other"}'):
            with pytest.raises(CheckpointError, match="format"):
                load_checkpoint(payload)

    def test_valid_text_round_trips(self):
        text = self._valid_text()
        original = json.loads(text)
        restored = StreamingDetector.restore(load_checkpoint(text)).checkpoint()
        for key in ("format", "version", "watermark", "emitted", "series"):
            assert restored[key] == original[key]
        # progress cursors survive as a set (rediscovery order may differ)
        assert sorted(map(json.dumps, restored["progress"])) == sorted(
            map(json.dumps, original["progress"])
        )

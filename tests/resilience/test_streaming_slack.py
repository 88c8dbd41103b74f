"""Bounded out-of-order tolerance: the reorder buffer vs the oracle.

The contract: with ``slack=S``, any stream whose events are each late by
at most ``S`` time units must produce exactly the emissions of the
time-ordered stream — which in turn equal offline search. Events later
than ``S`` are refused (raise) or counted and dropped, never silently
absorbed wrong.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.core.streaming import StreamingDetector
from repro.graph.interaction import InteractionGraph
from repro.resilience import duplicate_events, reorder_within_slack


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


def offline_keys(stream, motif):
    graph = InteractionGraph.from_tuples(stream)
    result = FlowMotifEngine(graph).find_instances(motif)
    return {i.canonical_key() for i in result.instances}


def streamed_keys(stream, motif, poll_every=7, **kwargs):
    detector = StreamingDetector(motif, **kwargs)
    emitted = []
    for i, (src, dst, t, f) in enumerate(stream):
        detector.add(src, dst, t, f)
        if poll_every and i % poll_every == 0:
            emitted.extend(detector.poll())
    emitted.extend(detector.flush())
    keys = [i.canonical_key() for i in emitted]
    assert len(keys) == len(set(keys)), "duplicate emission"
    return set(keys)


class TestSlackEqualsOracle:
    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("poll_every", [1, 7])
    def test_perturbed_stream_matches_offline(
        self, case, poll_every, base_seed
    ):
        rng = random.Random(base_seed + case)
        stream = random_stream(rng)
        motif = Motif.chain(3, delta=12, phi=3)
        slack = 5.0
        perturbed = reorder_within_slack(stream, slack, rng)
        assert streamed_keys(
            perturbed, motif, poll_every, slack=slack
        ) == offline_keys(stream, motif)

    def test_perturbed_with_duplicates_matches_perturbed_oracle(
        self, base_seed
    ):
        rng = random.Random(base_seed)
        stream = duplicate_events(random_stream(rng), 0.2, rng)
        motif = Motif.chain(2, delta=8, phi=2)
        perturbed = reorder_within_slack(stream, 3.0, rng)
        assert streamed_keys(perturbed, motif, slack=3.0) == offline_keys(
            stream, motif
        )

    def test_zero_slack_on_ordered_stream_unchanged(self, base_seed):
        rng = random.Random(base_seed)
        stream = random_stream(rng)
        motif = Motif.chain(3, delta=10, phi=3)
        assert streamed_keys(stream, motif, slack=0.0) == offline_keys(
            stream, motif
        )

    def test_slack_delays_but_never_loses_emissions(self):
        """Within-slack events are buffered, so a poll may emit later
        than the slack-free run — but the flush totals agree."""
        motif = Motif.chain(2, delta=4, phi=0)
        detector = StreamingDetector(motif, slack=10.0)
        detector.add("a", "b", 1.0, 2.0)
        detector.add("a", "b", 8.0, 2.0)
        # Watermark 8, emission horizon 8 - 10 < 1: nothing certain yet.
        assert detector.poll() == []
        assert detector.pending_count > 0
        emitted = detector.flush()
        assert detector.pending_count == 0
        baseline = StreamingDetector(motif)
        baseline.add("a", "b", 1.0, 2.0)
        baseline.add("a", "b", 8.0, 2.0)
        assert {i.canonical_key() for i in emitted} == {
            i.canonical_key() for i in baseline.flush()
        }


class TestLateEvents:
    def _fed(self, **kwargs):
        detector = StreamingDetector(Motif.chain(2, delta=4, phi=0), **kwargs)
        detector.add("a", "b", 10.0, 1.0)
        return detector

    def test_within_slack_accepted(self):
        detector = self._fed(slack=5.0)
        assert detector.add("a", "b", 6.0, 1.0) is True
        assert detector.late_dropped == 0

    def test_exactly_at_slack_boundary_accepted(self):
        detector = self._fed(slack=5.0)
        assert detector.add("a", "b", 5.0, 1.0) is True

    def test_beyond_slack_raises_by_default(self):
        detector = self._fed(slack=5.0)
        with pytest.raises(ValueError, match="out-of-order"):
            detector.add("a", "b", 4.9, 1.0)

    def test_beyond_slack_dropped_and_counted(self):
        detector = self._fed(slack=5.0, late="drop")
        assert detector.add("a", "b", 4.9, 1.0) is False
        assert detector.add("a", "b", 3.0, 1.0) is False
        assert detector.late_dropped == 2
        # ...and the dropped events contributed nothing: only the first
        # event exists, still sitting in the reorder buffer.
        assert detector.num_events + detector.pending_count == 1

    def test_zero_slack_rejects_any_regression(self):
        detector = self._fed()
        with pytest.raises(ValueError, match="out-of-order"):
            detector.add("a", "b", 9.999, 1.0)

    def test_metrics_surface_resilience_counters(self):
        detector = self._fed(slack=5.0, late="drop")
        detector.add("a", "b", 2.0, 1.0)
        detector.add("a", "b", 7.0, 1.0)
        snapshot = detector.metrics().snapshot()
        assert snapshot["gauges"]["stream.slack"] == 5.0
        assert snapshot["counters"]["stream.late_dropped"] == 1
        assert snapshot["gauges"]["stream.reorder_depth"] >= detector.pending_count


class TestValidation:
    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            StreamingDetector(Motif.chain(2, delta=4), slack=-1.0)

    def test_unknown_late_policy_rejected(self):
        with pytest.raises(ValueError):
            StreamingDetector(Motif.chain(2, delta=4), late="ignore")

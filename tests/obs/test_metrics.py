"""Registry semantics: determinism, associativity, escaping, activation."""

import itertools
import random
import sys
import threading

import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import (
    MetricsRegistry,
    render_prometheus,
    render_text,
    split_key,
)


def _random_registry(rng: random.Random) -> MetricsRegistry:
    reg = MetricsRegistry()
    for _ in range(rng.randrange(0, 12)):
        kind = rng.choice(("counter", "gauge"))
        name = rng.choice(("p1.matches", "p2.dp.cells", "stream.events"))
        labels = {}
        if rng.random() < 0.5:
            labels["motif"] = rng.choice(("M(3,2)", "M(3,3)", "0-1-2-0"))
        if kind == "counter":
            reg.counter(name, **labels).inc(rng.randrange(1, 100))
        else:
            reg.gauge(name, **labels).set(rng.uniform(0, 10))
    return reg


class TestMergeAssociativity:
    @pytest.mark.parametrize("seed", range(8))
    def test_any_merge_order_renders_identically(self, seed):
        """Property: folding worker snapshots in any order gives the same
        rendered report — counters sum, gauges max."""
        rng = random.Random(seed)
        snapshots = [_random_registry(rng).snapshot() for _ in range(4)]
        rendered = set()
        for order in itertools.permutations(range(len(snapshots))):
            merged = MetricsRegistry()
            for i in order:
                merged.merge(snapshots[i])
            rendered.add(
                (merged.render_text(), merged.render_prometheus())
            )
        assert len(rendered) == 1

    def test_merge_is_associative_not_just_commutative(self):
        a = MetricsRegistry()
        a.counter("c").inc(1)
        b = MetricsRegistry()
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        c = MetricsRegistry()
        c.gauge("g").set(3.0)
        c.counter("c").inc(4)

        left = MetricsRegistry.from_snapshot(a.snapshot())
        left.merge(b.snapshot())
        left.merge(c.snapshot())

        bc = MetricsRegistry.from_snapshot(b.snapshot())
        bc.merge(c.snapshot())
        right = MetricsRegistry.from_snapshot(a.snapshot())
        right.merge(bc.snapshot())

        assert left.snapshot() == right.snapshot()

    def test_counter_sum_gauge_max(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("g").set(7.0)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.gauge("g").set(2.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 7
        assert snap["gauges"]["g"] == 7.0

    def test_merge_ignores_a_histograms_section(self):
        """Snapshots written before histograms were dropped still merge:
        their counters and gauges fold in, the histograms are skipped."""
        old = {
            "counters": {"n": 2},
            "gauges": {"g": 1.5},
            "histograms": {
                "h": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
            },
        }
        merged = MetricsRegistry().merge(old).snapshot()
        assert merged == {"counters": {"n": 2}, "gauges": {"g": 1.5}}


class TestSnapshotDeterminism:
    def test_snapshot_independent_of_insertion_order(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        a.counter("y", motif="M(3,2)").inc(2)
        b = MetricsRegistry()
        b.counter("y", motif="M(3,2)").inc(2)
        b.counter("x").inc()
        assert a.snapshot() == b.snapshot()
        assert a.render_prometheus() == b.render_prometheus()

    def test_snapshot_is_a_deep_copy(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        snap = reg.snapshot()
        reg.counter("x").inc()
        assert snap["counters"]["x"] == 1


class TestLabelEscaping:
    def test_commas_and_equals_in_label_values_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("p2.dp.windows", motif="M(3,2)", expr="a=b").inc()
        key = next(iter(reg.snapshot()["counters"]))
        name, labels = split_key(key)
        assert name == "p2.dp.windows"
        assert dict(labels) == {"motif": "M(3,2)", "expr": "a=b"}

    def test_backslash_in_label_value_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", path="a\\b,c=d").inc()
        _, labels = split_key(next(iter(reg.snapshot()["counters"])))
        assert dict(labels) == {"path": "a\\b,c=d"}

    def test_prometheus_rendering_quotes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("p1.matches", motif="M(3,2)").inc(5)
        out = reg.render_prometheus()
        assert 'p1_matches_total{motif="M(3,2)"} 5' in out


class TestPrometheusExposition:
    def test_counter_and_gauge_families(self):
        reg = MetricsRegistry()
        reg.counter("stream.events").inc(10)
        reg.gauge("stream.watermark_lag").set(1.5)
        out = reg.render_prometheus()
        assert "# TYPE stream_events_total counter" in out
        assert "stream_events_total 10" in out
        assert "# TYPE stream_watermark_lag gauge" in out
        assert "stream_watermark_lag 1.5" in out
        assert out.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
        assert "no metrics" in render_text(MetricsRegistry().snapshot())


class TestActivation:
    def test_inactive_by_default(self):
        assert metrics.active() is None

    def test_activate_returns_previous(self):
        """Entering a nested observation activates it; leaving restores
        the previous one."""
        with obs.observe(trace=False) as outer:
            assert metrics.active() is outer.registry
            with obs.observe(trace=False) as inner:
                assert metrics.active() is inner.registry
            assert metrics.active() is outer.registry
        assert metrics.active() is None

    def test_activation_is_thread_local(self):
        seen = []
        with obs.observe(trace=False) as ob:
            t = threading.Thread(target=lambda: seen.append(metrics.active()))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            assert metrics.active() is ob.registry
        assert seen == [None]

    def test_concurrent_threads_each_see_their_own_observation(self):
        """Eight threads enter and leave nested observations under a tiny
        switch interval: each must always read its own registry, and the
        slot must be empty once they are done."""
        errors = []

        def worker():
            for _ in range(300):
                with obs.observe(trace=False) as outer:
                    with obs.observe(trace=False) as inner:
                        if metrics.active() is not inner.registry:
                            errors.append("inner")
                    if metrics.active() is not outer.registry:
                        errors.append("outer")
                if metrics.active() is not None:
                    errors.append("after")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert obs.slot.current() is None and not obs.slot._SLOTS

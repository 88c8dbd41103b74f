"""The one per-thread observation slot and the Observation that fills it."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import metrics, slot, tracing
from repro.obs.profiler import ProfileReport


class TestSlot:
    def test_swap_returns_previous_and_none_empties_the_slot(self):
        first, second = obs.Observation(), obs.Observation()
        assert slot.swap(first) is None
        try:
            assert slot.current() is first
            assert slot.swap(second) is first
            assert slot.current() is second
        finally:
            assert slot.swap(None) is second
        assert slot.current() is None
        assert not slot._SLOTS

    def test_error_inside_a_region_restores_the_outer_observation(self):
        with obs.observe() as outer:
            with pytest.raises(RuntimeError):
                with obs.observe(trace=False):
                    raise RuntimeError("boom")
            assert slot.current() is outer
        assert slot.current() is None


class TestObservation:
    def test_reentered_observation_accumulates_metrics_and_spans(self):
        observation = obs.observe()
        for _ in range(3):
            with observation:
                metrics.active().counter("p1.matches").inc(2)
                with tracing.span("p1.pass"):
                    pass
            assert slot.current() is None
        assert observation.snapshot()["counters"]["p1.matches"] == 6
        assert [s["name"] for s in observation.spans()] == ["p1.pass"] * 3

    def test_continued_trace_parents_at_the_shipped_context(self):
        with obs.observe() as dispatcher:
            with tracing.span("query"):
                context = tracing.active().context()
        with obs.Observation(trace=context) as task:
            with tracing.span("p2.enumerate"):
                pass
        (record,) = task.spans()
        (query,) = dispatcher.spans()
        assert record["trace_id"] == query["trace_id"]
        assert record["parent_id"] == query["span_id"]

    def test_adopt_folds_spans_snapshot_and_profile(self):
        with obs.observe(trace=False) as worker:
            worker.registry.counter("p2.dp.cells").inc(5)
        with obs.Observation() as task:
            with tracing.span("p2.enumerate"):
                pass
        profile = ProfileReport()
        profile.add_stack("p2.enumerate", ["mod:f"])

        home = obs.Observation(profile=True)
        home.adopt(task.spans(), worker.snapshot(), profile.to_dict())
        home.adopt(task.spans(), worker.snapshot(), profile.to_dict())
        assert home.snapshot()["counters"]["p2.dp.cells"] == 10
        assert [s["name"] for s in home.spans()] == ["p2.enumerate"] * 2
        assert home.profile().by_span == {"p2.enumerate": 2}

    def test_adopt_keeps_only_what_the_observation_collects(self):
        with obs.Observation() as task:
            with tracing.span("p1.match"):
                pass
        profile = ProfileReport()
        profile.add_stack("p1.match", ["mod:f"])

        home = obs.Observation(trace=False)
        home.adopt(task.spans(), {"counters": {"n": 1}}, profile.to_dict())
        home.adopt([], None, None)
        assert home.spans() == []
        assert home.profile() is None
        assert home.snapshot() == {"counters": {"n": 1}, "gauges": {}}

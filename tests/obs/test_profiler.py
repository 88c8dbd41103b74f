"""Sampling profiler: report arithmetic, attribution, and activation.

The statistical parts keep their assertions loose (a sampler thread on a
loaded CI box may fire late); the deterministic parts — report merging,
serialization, collapsed-stack format, activation scoping, the empty
slot of a forked child — are exact.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro import obs
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.obs import metrics, slot, tracing
from repro.obs.profiler import NO_SPAN, ProfileReport, Profiler
from repro.parallel import ParallelFlowMotifEngine


def _busy(seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(i * i for i in range(200))
    return acc


class TestProfileReport:
    def test_add_stack_aggregates(self):
        report = ProfileReport(hz=100.0)
        report.add_stack("p2.enumerate", ["a:f", "b:g"])
        report.add_stack("p2.enumerate", ["a:f", "b:g"])
        report.add_stack(None, ["a:f"])
        assert report.samples == 3
        assert report.by_span == {"p2.enumerate": 2, NO_SPAN: 1}
        assert report.collapsed["p2.enumerate;a:f;b:g"] == 2

    def test_merge_sums_everything(self):
        a = ProfileReport(hz=100.0)
        a.add_stack("p1.match", ["m:f"])
        b = ProfileReport(hz=100.0)
        b.add_stack("p1.match", ["m:f"])
        b.add_stack("p2.enumerate", ["m:g"])
        a.merge(b)
        assert a.samples == 3
        assert a.by_span == {"p1.match": 2, "p2.enumerate": 1}
        assert a.collapsed["p1.match;m:f"] == 2

    def test_dict_round_trip(self):
        report = ProfileReport(hz=50.0)
        report.add_stack("p2.enumerate", ["a:f", "b:g"])
        clone = ProfileReport.from_dict(report.to_dict())
        assert clone.hz == report.hz
        assert clone.samples == report.samples
        assert clone.collapsed == report.collapsed
        assert clone.by_span == report.by_span

    def test_dominant_span_restricted_to_prefixes(self):
        report = ProfileReport()
        for _ in range(5):
            report.add_stack("query.find_instances", ["q:f"])
        for _ in range(3):
            report.add_stack("p2.enumerate", ["e:g"])
        report.add_stack("p1.match", ["m:h"])
        # query.* holds the most samples but is not a phase span.
        assert report.dominant_span() == "p2.enumerate"
        assert report.dominant_span(prefixes=("query.",)) == (
            "query.find_instances"
        )
        assert ProfileReport().dominant_span() is None

    def test_write_collapsed_format(self, tmp_path):
        report = ProfileReport()
        report.add_stack("p2.enumerate", ["mod:outer", "mod:inner"])
        report.add_stack("p2.enumerate", ["mod:outer", "mod:inner"])
        path = str(tmp_path / "out.collapsed")
        report.write_collapsed(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert "p2.enumerate;mod:outer;mod:inner 2" in lines

    def test_render_text_mentions_samples_and_spans(self):
        report = ProfileReport(hz=97.0)
        report.add_stack("p2.enumerate", ["mod:f"])
        text = report.render_text()
        assert "1 samples" in text
        assert "p2.enumerate" in text


class TestSampling:
    def test_samples_attributed_to_ambient_span(self):
        with obs.observe(trace=True, profile=True, profile_hz=250.0) as o:
            with tracing.span("p2.test_hotspot"):
                _busy(0.25)
        report = o.profile()
        assert report is not None
        assert report.samples > 0
        assert report.by_span.get("p2.test_hotspot", 0) > 0
        assert report.dominant_span(prefixes=("p2.",)) == "p2.test_hotspot"

    def test_profile_off_by_default(self):
        assert slot.current() is None
        with obs.observe(trace=True) as o:
            assert slot.current().profiler is None
            _busy(0.02)
        assert o.profile() is None
        assert slot.current() is None

    def test_samples_only_the_starting_thread(self):
        """Another thread's spans never land in this thread's profile."""

        def other():
            with obs.observe():
                with tracing.span("p2.other_thread"):
                    _busy(0.2)

        with obs.observe(profile=True, profile_hz=250.0) as o:
            t = threading.Thread(target=other)
            with tracing.span("p1.this_thread"):
                t.start()
                _busy(0.2)
                t.join(timeout=10)
        assert not t.is_alive()
        report = o.profile()
        assert report.by_span.get("p1.this_thread", 0) > 0
        assert "p2.other_thread" not in report.by_span

    def test_reentered_observation_accumulates_samples(self):
        observation = obs.observe(profile=True, profile_hz=250.0)
        counts = []
        for _ in range(2):
            with observation:
                with tracing.span("p2.pass"):
                    _busy(0.1)
            counts.append(observation.profile().by_span.get("p2.pass", 0))
        assert 0 < counts[0] < counts[1]

    def test_stop_is_idempotent_and_joins_thread(self):
        profiler = Profiler(hz=200.0)
        profiler.start()
        _busy(0.05)
        profiler.stop()
        profiler.stop()
        names = [t.name for t in threading.enumerate()]
        assert "repro-profiler" not in names


class TestActivation:
    def test_activate_returns_previous(self):
        """Entering a nested observation activates it; leaving restores
        the previous one and its profiler."""
        with obs.observe(profile=True) as outer:
            with obs.observe() as inner:
                assert slot.current() is inner
                assert inner.profile() is None
            assert slot.current() is outer
            assert slot.current().profiler is outer.profiler
        assert slot.current() is None

    def test_activation_is_thread_local(self):
        seen = []
        with obs.observe(profile=True):
            t = threading.Thread(target=lambda: seen.append(slot.current()))
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [None]


class TestForkGhostGuard:
    def test_forked_child_starts_unobserved(self):
        """A child forked inside an observed region (a pool worker forked
        by a traced query) must not record into its copy of the parent's
        registry or tracer."""
        read_end, write_end = os.pipe()
        with obs.observe():
            pid = os.fork()
            if pid == 0:
                clean = (
                    slot.current() is None
                    and metrics.active() is None
                    and tracing.active() is None
                )
                os.write(write_end, b"1" if clean else b"0")
                os._exit(0)
            os.waitpid(pid, 0)
        os.close(write_end)
        try:
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)

    def test_worker_samples_cross_process_boundary(self):
        """End to end: a profiled process-backend search ships span-
        attributed samples back through the obs envelope."""
        rng = random.Random(3)
        g = InteractionGraph()
        nodes = [f"n{i}" for i in range(10)]
        for _ in range(4000):
            u, v = rng.sample(nodes, 2)
            g.add_interaction(u, v, rng.uniform(0, 300.0), rng.uniform(0.5, 5))
        motif = Motif.chain(3, delta=5.0, phi=0.0)
        with obs.observe(trace=True, profile=True) as o:
            with ParallelFlowMotifEngine(
                g, jobs=2, shards=4, backend="process"
            ) as engine:
                count = engine.find_instances(motif, collect=False).count
        assert count > 0
        report = o.profile()
        assert report is not None
        assert report.samples > 0
        # At least one sample must carry a phase span recorded inside a
        # worker process (the dispatcher itself never runs P1/P2).
        assert any(
            name.startswith(("p1.", "p2.")) for name in report.by_span
        )


def _skewed_graph() -> InteractionGraph:
    """9,000 events whose density decays as ~t^(-1/2) (t = 4000·u²), so
    equal-event shards do unequal P2 work."""
    rng = random.Random(7)
    g = InteractionGraph()
    nodes = [f"n{i}" for i in range(12)]
    for _ in range(9000):
        u, v = rng.sample(nodes, 2)
        g.add_interaction(
            u, v, 4000.0 * rng.random() ** 2, rng.uniform(0.5, 5.0)
        )
    return g


class TestReconciliation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_profile_reconciles_with_tracer(self, jobs):
        """A profiled sharded find: the span its samples land in most is
        the span with the most tracer seconds among p1./p2. With
        ``jobs=1`` the shard tasks run inline on the sampled thread, each
        under its own per-task tracer."""
        motif = Motif.chain(3, delta=5.0, phi=0.0)
        with obs.observe(trace=True, profile=True) as observation:
            with ParallelFlowMotifEngine(
                _skewed_graph(), jobs=jobs, shards=4, backend="process"
            ) as engine:
                assert engine.find_instances(motif, collect=False).count > 0
        profile = observation.profile()
        assert profile is not None
        assert profile.samples > 0
        span_seconds: dict = {}
        for span in observation.spans():
            name = span["name"]
            if name.startswith(("p1.", "p2.")):
                duration = (span["end"] or span["start"]) - span["start"]
                span_seconds[name] = span_seconds.get(name, 0.0) + duration
        by_time = max(span_seconds.items(), key=lambda kv: kv[1])[0]
        by_samples = profile.dominant_span()
        assert by_samples == by_time, (
            f"samples say {by_samples}, tracer says {by_time}"
        )

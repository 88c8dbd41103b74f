"""Sampling profiler: report arithmetic, attribution, and activation.

The statistical parts keep their assertions loose (a sampler thread on a
loaded CI box may fire late); the deterministic parts — report merging,
serialization, collapsed-stack format, activation scoping, the
fork-ghost guard — are exact.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro import obs
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.obs import profiler as profiler_mod
from repro.obs import tracing
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
        assert profiler_mod.active() is None
        with obs.observe(trace=True) as o:
            _busy(0.02)
        assert o.profile() is None
        assert profiler_mod.active() is None

    def test_stop_is_idempotent_and_joins_thread(self):
        profiler = Profiler(hz=200.0)
        profiler.start()
        _busy(0.05)
        profiler.stop()
        profiler.stop()
        assert not profiler.sampling_here
        names = [t.name for t in threading.enumerate()]
        assert "repro-profiler" not in names


class TestActivation:
    def test_activate_returns_previous(self):
        profiler = Profiler()
        prev = profiler_mod.activate(profiler)
        try:
            assert profiler_mod.active() is profiler
        finally:
            profiler_mod.activate(prev)
        assert profiler_mod.active() is prev

    def test_activation_is_thread_local(self):
        profiler = Profiler()
        prev = profiler_mod.activate(profiler)
        seen = []
        try:
            t = threading.Thread(
                target=lambda: seen.append(profiler_mod.active())
            )
            t.start()
            t.join()
        finally:
            profiler_mod.activate(prev)
        assert seen == [None]


class TestForkGhostGuard:
    def test_sampling_here_requires_same_pid(self):
        """A forked worker inherits the dispatcher's thread-local
        profiler object, but not its sampler thread: ``sampling_here``
        must be False there so the worker arms its own profiler."""
        profiler = Profiler(hz=200.0)
        assert not profiler.sampling_here  # never started
        profiler.start()
        try:
            assert profiler.sampling_here
            real_pid = profiler._pid
            profiler._pid = os.getpid() + 1  # what a forked child sees
            assert not profiler.sampling_here
            profiler._pid = real_pid
        finally:
            profiler.stop()

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
    def test_profile_reconciles_with_tracer(self):
        """A profiled process-backend find: the span its samples land in
        most is the span with the most tracer seconds among p1./p2."""
        motif = Motif.chain(3, delta=5.0, phi=0.0)
        with obs.observe(trace=True, profile=True) as observation:
            with ParallelFlowMotifEngine(
                _skewed_graph(), jobs=2, shards=4, backend="process"
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

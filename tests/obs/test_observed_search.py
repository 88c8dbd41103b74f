"""End-to-end observability acceptance: one parallel search, one tree.

The ISSUE 7 acceptance criteria, as tests:

* a process-backend search over >= 2 shards yields a *single* stitched
  trace tree whose span ids provably cross the worker boundary (distinct
  pid prefixes);
* per-phase span durations equal ``SearchResult.shard_timings`` exactly
  (both read the same span clock);
* with observability disabled nothing is recorded, nothing leaks onto
  the thread state, and shard tasks carry no trace context and come back
  with no observability payload.
"""

import json
import math
import os
import random
import time

import pytest

from repro import obs
from repro.cli import main
from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import span_totals, stitch_trace
from repro.parallel import ParallelFlowMotifEngine
from repro.parallel.worker import run_shard_task


def _graph(num_events=2500, nodes=30, horizon=400.0, seed=5):
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(num_events):
        u, v = rng.sample(range(nodes), 2)
        g.add_interaction(
            f"n{u}", f"n{v}", rng.uniform(0.0, horizon), rng.uniform(1.0, 9.0)
        )
    return g


MOTIF = Motif.chain(3, delta=40.0, phi=0.0)


class TestStitchedParallelTrace:
    @pytest.fixture(scope="class")
    def observed(self):
        graph = _graph()
        with ParallelFlowMotifEngine(
            graph, jobs=2, shards=4, backend="process"
        ) as engine:
            with obs.observe() as observation:
                result = engine.find_instances(MOTIF, collect=False)
        return observation, result

    def test_single_stitched_root(self, observed):
        observation, _result = observed
        roots = stitch_trace(observation.spans())
        assert len(roots) == 1
        assert roots[0].span.name == "query.find_instances"
        shard_tasks = [
            c for c in roots[0].children
            if c.span.name == "worker.shard_task"
        ]
        assert len(shard_tasks) == 4
        for task in shard_tasks:
            names = sorted(c.span.name for c in task.children)
            assert names == ["p1.match", "p2.enumerate", "worker.materialize"]

    def test_span_ids_cross_worker_boundary(self, observed):
        observation, _result = observed
        spans = observation.spans()
        pids = {s["span_id"].split("-", 1)[0] for s in spans}
        assert len(pids) >= 2, "expected spans from at least two processes"
        here = f"{os.getpid():x}"
        assert here in pids  # the dispatcher's query span
        worker_pids = {
            s["span_id"].split("-", 1)[0]
            for s in spans
            if s["name"] == "worker.shard_task"
        }
        assert worker_pids and here not in worker_pids
        # Every span belongs to the one trace.
        assert len({s["trace_id"] for s in spans}) == 1

    def test_phase_totals_reconcile_with_shard_timings(self, observed):
        """P1/P2 span time equals the engine's own accounting exactly:
        ``p1_seconds``/``p2_seconds`` are the spans' own ``elapsed``."""
        observation, result = observed
        spans = observation.spans()
        timings = result.shard_timings
        assert timings is not None
        for name, field in (("p1.match", "p1_seconds"),
                            ("p2.enumerate", "p2_seconds")):
            durations = {
                s["attrs"]["shard"]: s["end"] - s["start"]
                for s in spans
                if s["name"] == name
            }
            reported = {t.shard_index: getattr(t, field) for t in timings.shards}
            assert durations == reported
            assert math.fsum(durations.values()) == math.fsum(
                reported.values()
            )

    def test_counters_reconcile_with_result(self, observed):
        observation, result = observed
        counters = observation.snapshot()["counters"]
        assert counters["p1.matches"] == result.num_matches
        assert counters["p2.instances"] == result.count
        gauges = observation.snapshot()["gauges"]
        assert gauges["parallel.num_shards"] == 4
        assert gauges["parallel.shard_imbalance_ratio"] >= 1.0

    def test_observed_count_matches_unobserved(self, observed):
        _observation, result = observed
        serial = FlowMotifEngine(_graph()).find_instances(
            MOTIF, collect=False
        )
        assert result.count == serial.count


class TestBackendTrace:
    @pytest.mark.parametrize("jobs", [2, 1], ids=["process", "serial"])
    def test_backend_stitches_single_root(self, jobs):
        graph = _graph(num_events=600)
        with obs.observe() as observation:
            with ParallelFlowMotifEngine(
                graph, jobs=jobs, shards=2
            ) as engine:
                engine.find_instances(MOTIF, collect=False)
        roots = stitch_trace(observation.spans())
        assert len(roots) == 1
        names = [c.span.name for c in roots[0].children]
        assert names.count("worker.shard_task") == 2
        # Dispatcher state must be restored after per-task activation.
        assert obs_metrics.active() is None
        assert obs_tracing.active() is None

    def test_partition_export_attach_and_slice_have_spans(self):
        """The parent's partition and shm export are children of the
        query span; a worker's first attach and each new shard's slicing
        are children of its ``worker.materialize``."""
        graph = _graph(num_events=600)
        with obs.observe() as observation:
            with ParallelFlowMotifEngine(graph, jobs=2, shards=2) as engine:
                engine.find_instances(MOTIF, collect=False)
        (root,) = stitch_trace(observation.spans())
        names = [c.span.name for c in root.children]
        assert names.count("parallel.partition") == 1
        assert names.count("transport.export") == 1
        assert names.count("worker.shard_task") == 2
        transport = [
            grandchild.span.name
            for task in root.children
            if task.span.name == "worker.shard_task"
            for child in task.children
            if child.span.name == "worker.materialize"
            for grandchild in child.children
        ]
        assert transport.count("transport.slice") == 2
        assert 1 <= transport.count("transport.attach") <= 2
        assert set(transport) == {"transport.attach", "transport.slice"}


class TestNoopMode:
    def test_disabled_records_nothing_and_leaks_nothing(self):
        assert obs_metrics.active() is None
        assert obs_tracing.active() is None
        graph = _graph(num_events=400)
        with ParallelFlowMotifEngine(
            graph, jobs=2, shards=2, backend="process"
        ) as engine:
            engine.find_instances(MOTIF, collect=False)
        assert obs_metrics.active() is None
        assert obs_tracing.active() is None

    def test_untraced_task_has_no_trace_context_or_obs_payload(self):
        graph = _graph(num_events=200)
        engine = ParallelFlowMotifEngine(graph, jobs=1, shards=2)
        query = (MOTIF, MOTIF.delta, MOTIF.phi)
        tasks = engine._shard_tasks(
            engine.partition(MOTIF.delta), "search", [query]
        )
        assert len(tasks) == 2
        for task in tasks:
            assert task.trace is None and task.profile_hz is None
            reply = run_shard_task(task)
            assert reply.spans is None
            assert reply.snapshot is None
            assert reply.profile is None
            assert len(reply.outputs) == 1

    def test_observation_scoped_to_with_block(self):
        graph = _graph(num_events=300)
        engine = FlowMotifEngine(graph)
        with obs.observe() as observation:
            engine.find_instances(MOTIF, collect=False)
        before = len(observation.spans())
        engine.find_instances(MOTIF, collect=False)  # outside the block
        assert len(observation.spans()) == before
        assert observation.snapshot()["counters"]["p2.instances"] > 0

    def test_sink_round_trip(self, tmp_path):
        graph = _graph(num_events=300)
        path = str(tmp_path / "obs.jsonl")
        with obs.observe() as observation:
            FlowMotifEngine(graph).find_instances(MOTIF, collect=False)
        observation.write_jsonl(path)
        snapshot, spans, _events = obs.load_observations([path])
        assert snapshot["counters"] == observation.snapshot()["counters"]
        assert len(spans) == len(observation.spans())
        roots = stitch_trace(spans)
        assert len(roots) == 1

    def test_sink_file_with_histograms_still_loads(self, tmp_path, capsys):
        """A sink file whose snapshot carries a ``histograms`` section
        (the format before histograms were dropped) loads and renders its
        counters and gauges."""
        path = tmp_path / "old.jsonl"
        snapshot = {
            "counters": {"p1.matches": 5},
            "gauges": {"parallel.num_shards": 4},
            "histograms": {
                "p2.window_seconds": {
                    "buckets": [0.1, 1.0],
                    "counts": [2, 1, 0],
                    "sum": 0.9,
                    "count": 3,
                }
            },
        }
        path.write_text(json.dumps({"kind": "metrics", "snapshot": snapshot}) + "\n")
        loaded, spans, _events = obs.load_observations([str(path)])
        assert loaded == {
            "counters": {"p1.matches": 5},
            "gauges": {"parallel.num_shards": 4},
        }
        assert spans == []
        assert main(["metrics", str(path), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "p1.matches" in text and "parallel.num_shards" in text
        assert main(["metrics", str(path)]) == 0
        prom = capsys.readouterr().out
        assert "p1_matches_total 5" in prom
        assert "parallel_num_shards 4" in prom
        assert "p2_window_seconds" not in prom


class TestOverhead:
    def test_counters_on_find_within_budget(self):
        """Live counters (tracing, profiler and flight recorder off, as
        shipped) keep a serial find within 1.5x of the all-off default.
        Interleaved reps, minimum of each, so clock drift cancels."""
        rng = random.Random(7)
        g = InteractionGraph()
        nodes = [f"n{i}" for i in range(12)]
        for _ in range(9000):
            u, v = rng.sample(nodes, 2)
            g.add_interaction(
                u, v, 4000.0 * rng.random() ** 2, rng.uniform(0.5, 5.0)
            )
        engine = FlowMotifEngine(g.to_time_series())
        motif = Motif.chain(3, delta=5.0, phi=0.0)

        def timed() -> float:
            start = time.perf_counter()
            engine.find_instances(motif, collect=False)
            return time.perf_counter() - start

        off, on = [], []
        for _ in range(3):
            off.append(timed())
            with obs.observe(trace=False):
                on.append(timed())
        ratio = min(on) / min(off)
        assert ratio < 1.5, f"counters-on find {ratio:.2f}x over off"

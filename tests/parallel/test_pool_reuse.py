"""One worker pool per engine: queries reuse its workers and their shards.

A :class:`ParallelFlowMotifEngine` starts one process pool on its first
fan-out and keeps it until a round fails or the engine closes.
Each case here fails on a design that starts a pool per dispatch round,
that hands the fault plan to workers through their environment, or that
keeps a shard's P1 match lists anywhere but next to the shard.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import signal
import time

import pytest

from repro import obs
from repro.core import matching as _matching
from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import ColumnStore
from repro.graph.interaction import InteractionGraph
from repro.parallel import BatchRunner, ParallelFlowMotifEngine
from repro.parallel import worker as _worker
from repro.parallel.partition import materialize_shard, partition_time_range
from repro.resilience import FaultSpec, RetryPolicy, active_segments, inject

FAST = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05)
MOTIF = Motif.chain(3, delta=9, phi=4)


def _graph(seed: int = 7, num_events: int = 150) -> InteractionGraph:
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(6)]
    graph = InteractionGraph()
    for _ in range(num_events):
        src, dst = rng.sample(nodes, 2)
        graph.add_interaction(
            src, dst, float(rng.randrange(0, 60)), float(rng.randint(1, 9))
        )
    return graph


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.fixture(scope="module")
def serial(graph):
    return FlowMotifEngine(graph).find_instances(MOTIF)


def _traced_find(engine):
    """Run one find; return it with the pids its shard tasks ran in."""
    with obs.observe() as observation:
        result = engine.find_instances(MOTIF)
    pids = {
        int(s["span_id"].split("-", 1)[0], 16)
        for s in observation.spans()
        if s["name"] == "worker.shard_task"
    }
    return result, pids


@pytest.fixture
def no_children():
    """Wait out workers other tests' engines left behind, so a check of
    ``active_children()`` sees only this test's."""
    gc.collect()
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert multiprocessing.active_children() == []


def test_close_ends_a_timed_out_rounds_straggler(graph, serial, no_children):
    """A timed-out round drops its pool without waiting, but its worker
    still runs the delayed shard; leaving the ``with`` block ends it."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=2, timeout=0.5, base_delay=0.01),
    ) as engine:
        with inject(FaultSpec(kind="delay", shards=(1,), delay=5.0, times=1)):
            result = engine.find_instances(MOTIF)
        assert "timeout" in engine.last_dispatch.fault_categories
    assert multiprocessing.active_children() == []
    assert result.count == serial.count


def test_queries_share_worker_pids(graph, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process"
    ) as engine:
        first, first_pids = _traced_find(engine)
        live = {p.pid for p in multiprocessing.active_children()}
        second, second_pids = _traced_find(engine)
    assert first_pids and second_pids
    assert first_pids | second_pids <= live
    assert os.getpid() not in first_pids | second_pids
    for result in (first, second):
        assert _keys(result.instances) == _keys(serial.instances)


def _worker_observation():
    """Pool probe: whether this worker would record into a registry or a
    tracer when it runs an unobserved task."""
    from repro.obs import metrics, tracing

    time.sleep(0.05)  # keep this worker busy so the next probe lands on another
    return os.getpid(), metrics.active() is None, tracing.active() is None


def test_workers_forked_by_a_traced_query_record_nothing_later(graph, serial):
    """A worker forked during a traced find must not keep recording into
    its copy of the dispatcher's registry and tracer for the rest of the
    pool's life."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=2, backend="process"
    ) as engine:
        _, pids = _traced_find(engine)  # the pool forks inside this query
        for _ in range(3):
            assert _keys(engine.find_instances(MOTIF).instances) == _keys(
                serial.instances
            )
            assert engine.count_instances(MOTIF).count == serial.count
        pool = engine._pool()
        probes = [pool.submit(_worker_observation) for _ in range(6)]
        reports = [probe.result(timeout=30) for probe in probes]
        live = {p.pid for p in multiprocessing.active_children()}
    assert pids and {pid for pid, _, _ in reports} <= live
    assert all(no_registry and no_tracer for _, no_registry, no_tracer in reports)


def test_kill_replaces_the_pool(graph, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process", retry_policy=FAST
    ) as engine:
        _, before = _traced_find(engine)
        with inject(FaultSpec(kind="kill", shards=(1,), times=1)):
            killed = engine.find_instances(MOTIF)
        assert engine.last_dispatch.faults
        after_result, after = _traced_find(engine)
        report = engine.last_dispatch
    assert report.faults == []
    assert report.final_backend == "process"
    assert after and not before & after
    for result in (killed, after_result):
        assert _keys(result.instances) == _keys(serial.instances)


def test_worker_death_between_queries_is_retried(graph, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process", retry_policy=FAST
    ) as engine:
        _, pids = _traced_find(engine)
        (victim,) = [
            p for p in multiprocessing.active_children()
            if p.pid == min(pids)
        ]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        result = engine.find_instances(MOTIF)
        assert engine.last_dispatch.final_backend == "process"
    assert _keys(result.instances) == _keys(serial.instances)


def test_plan_armed_after_pool_start_fires_once(graph, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process", retry_policy=FAST
    ) as engine:
        engine.find_instances(MOTIF)  # the pool starts with no plan armed
        with inject(FaultSpec(kind="raise", shards=(0,), times=1)) as plan:
            result = engine.find_instances(MOTIF)
            claims = len(os.listdir(plan.state_dir))
        report = engine.last_dispatch
    assert claims == 2  # the failed attempt and its clean retry
    assert len(report.faults) == 1 and report.faults[0].shard_index == 0
    assert _keys(result.instances) == _keys(serial.instances)


def test_disarmed_plan_stays_out_of_a_reused_pool(graph, serial):
    spec = FaultSpec(kind="raise", task_kinds=("search",), times=10**9)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process", retry_policy=FAST
    ) as engine:
        with inject(spec):
            # The pool starts while the plan is armed; count tasks miss it.
            engine.count_instances(MOTIF)
        assert engine.last_dispatch.faults == []
        result = engine.find_instances(MOTIF)
        assert engine.last_dispatch.faults == []
    assert _keys(result.instances) == _keys(serial.instances)


@pytest.mark.parametrize("surface", ["engine", "batch"])
def test_close_joins_the_workers(graph, serial, no_children, surface):
    if surface == "engine":
        with ParallelFlowMotifEngine(
            graph, jobs=2, shards=3, backend="process"
        ) as engine:
            counts = [engine.find_instances(MOTIF).count for _ in range(2)]
            assert multiprocessing.active_children()
    else:
        with BatchRunner(graph, jobs=2, shards=3, backend="process") as runner:
            counts = [runner.run([MOTIF])[0].count for _ in range(2)]
            assert multiprocessing.active_children()
    assert multiprocessing.active_children() == []
    assert active_segments() == []
    assert counts == [serial.count] * 2


def test_close_releases_the_inline_attach_after_degradation(graph, serial):
    """A dispatch that degrades to serial runs store-ref tasks in this
    process; closing the engine drops the attach they cached here."""
    engine = ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=0, base_delay=0.0),
    )
    try:
        with inject(FaultSpec(kind="kill", times=10**9)):
            result = engine.find_instances(MOTIF)
        assert engine.last_dispatch.degradations == ["serial"]
        assert engine.last_dispatch.final_backend == "serial"
        ref = engine._export.shm_name
        assert ref in _worker._STORES
    finally:
        engine.close()
    assert ref not in _worker._STORES
    assert active_segments() == []
    assert _keys(result.instances) == _keys(serial.instances)


def test_worker_slices_each_shard_once(graph):
    ts = graph.to_time_series()
    export = ColumnStore.from_graph(ts).to_shared()
    ref = export.shm_name
    try:
        shards = partition_time_range(ts, 3, MOTIF.delta, materialize=False)
        tasks = [
            _worker.ShardTask("search", s.bounds, (), shm_name=ref)
            for s in shards
        ]
        sliced = [_worker._store_shard(task)[0] for task in tasks]
        assert [_worker._store_shard(t)[0] for t in tasks] == sliced
        view = ColumnStore.attach(ref)
        try:
            whole = view.to_graph()
            for shard, task in zip(sliced, tasks):
                expected = materialize_shard(whole, task.bounds)
                assert shard.offsets == expected.offsets
                assert sorted(
                    (s.src, s.dst, list(s.times)) for s in shard.graph.all_series()
                ) == sorted(
                    (s.src, s.dst, list(s.times))
                    for s in expected.graph.all_series()
                )
            del whole, expected
        finally:
            gc.collect()
            view.close()
        # Two partitions' worth of shards stay; the oldest go first.
        wider = partition_time_range(ts, 3, 2 * MOTIF.delta, materialize=False)
        for s in wider + partition_time_range(
            ts, 3, 3 * MOTIF.delta, materialize=False
        )[:1]:
            _worker._store_shard(
                _worker.ShardTask("search", s.bounds, (), shm_name=ref)
            )
        cached = _worker._STORES[ref][1]
        assert len(cached) == 6
        assert tasks[0].bounds not in cached
        assert tasks[1].bounds in cached
    finally:
        del sliced
        _worker.release_store(ref)
        export.close(unlink=True)
    assert ref not in _worker._STORES


def test_shard_keeps_its_p1_list_across_queries(graph, monkeypatch):
    """A store-ref shard's match cache lives in ``_STORES``: a repeat query
    at a φ no lower than the cached one runs no P1 DFS."""
    real = _matching.iter_structural_matches
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs["phi"])
        return real(*args, **kwargs)

    monkeypatch.setattr(_matching, "iter_structural_matches", spy)
    ts = graph.to_time_series()
    export = ColumnStore.from_graph(ts).to_shared()
    ref = export.shm_name
    bounds = partition_time_range(ts, 3, MOTIF.delta, materialize=False)[1].bounds

    def run(phi):
        task = _worker.ShardTask(
            "search", bounds, ((MOTIF, MOTIF.delta, phi),), shm_name=ref
        )
        return _worker.run_shard_task(task).outputs[0]

    try:
        first, second = run(4.0), run(4.0)
        assert built == [4.0]
        assert second.records == first.records
        assert second.num_matches == first.num_matches > 0
        run(6.0)
        assert built == [4.0]
        assert run(1.0).num_matches >= first.num_matches
        assert built == [4.0, 1.0]
    finally:
        _worker.release_store(ref)
        export.close(unlink=True)


def test_release_after_serial_degradation_unmaps(graph, serial, caplog):
    """The match lists a serial-degraded query cached in this process hold
    views into the export; releasing the store drops them with their
    shards, so neither the attach nor the export stays mapped."""
    engine = ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=0, base_delay=0.0),
    )
    try:
        with inject(FaultSpec(kind="kill", times=10**9)):
            found = engine.find_instances(MOTIF)
            counted = engine.count_instances(MOTIF, phi=2.0)
        assert engine.last_dispatch.degradations == ["serial"]
        assert engine.last_dispatch.final_backend == "serial"
        assert _worker._STORES[engine._export.shm_name][1]
    finally:
        with caplog.at_level("DEBUG"):
            engine.close()
    assert "still mapped" not in caplog.text
    assert _keys(found.instances) == _keys(serial.instances)
    assert counted.count == FlowMotifEngine(graph).count_instances(
        MOTIF, phi=2.0
    ).count


def test_rejected_construction_releases_quietly(caplog):
    with caplog.at_level("WARNING", logger="repro.parallel.engine"):
        with pytest.raises(TypeError):
            ParallelFlowMotifEngine("not a graph")
        gc.collect()
    assert caplog.records == []

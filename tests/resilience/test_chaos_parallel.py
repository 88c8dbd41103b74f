"""Chaos property tests: the parallel engine under injected faults.

Every test follows the same shape — build a seeded random graph, compute
the serial oracle, then run the parallel engine while the fault-injection
harness kills, delays, or breaks shard tasks — and asserts the recovered
output is *multiset-identical* to serial. Fault tolerance that changes
answers is worse than no fault tolerance.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.parallel import ParallelFlowMotifEngine
from repro.resilience import (
    FaultSpec,
    RetryPolicy,
    ShardExecutionError,
    active_segments,
    inject,
)

#: Fast, deterministic retry schedule for tests.
FAST = dict(base_delay=0.01, max_delay=0.05, jitter=0.0)


def _random_graph(seed: int, num_events: int = 80) -> InteractionGraph:
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(6)]
    graph = InteractionGraph()
    for _ in range(num_events):
        src, dst = rng.sample(nodes, 2)
        graph.add_interaction(
            src, dst, float(rng.randrange(0, 40)), float(rng.randint(1, 9))
        )
    return graph


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


@pytest.fixture
def motif():
    return Motif.chain(3, delta=9, phi=4)


@pytest.fixture
def graph(base_seed):
    return _random_graph(base_seed)


@pytest.fixture
def serial(graph, motif):
    return FlowMotifEngine(graph).find_instances(motif)


def test_transient_worker_kill_is_retried(graph, motif, serial):
    """A worker killed mid-shard breaks the pool; the retry round must
    re-run the lost shards and merge to exactly the serial answer."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=2, **FAST),
    ) as engine:
        with inject(FaultSpec(kind="kill", shards=(1,), times=1)):
            result = engine.find_instances(motif)
        report = engine.last_dispatch
    assert _keys(result.instances) == _keys(serial.instances)
    assert sorted(result.flows()) == sorted(serial.flows())
    assert report.retry_rounds >= 1
    assert "worker-crash" in report.fault_categories
    assert report.final_backend == "process"
    assert report.degradations == []


def test_persistent_kill_degrades_to_serial(graph, motif, serial):
    """When every process round dies, the engine must fall back to the
    serial backend (where the kill fault cannot fire: same pid as the
    owner) and still produce the serial answer."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=1, **FAST),
    ) as engine:
        with inject(FaultSpec(kind="kill", times=10**9)):
            result = engine.find_instances(motif)
        report = engine.last_dispatch
    assert _keys(result.instances) == _keys(serial.instances)
    assert report.degradations == ["serial"]
    assert report.final_backend == "serial"


def test_transient_raise_on_process_backend(graph, motif, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=4, backend="process",
        retry_policy=RetryPolicy(max_retries=2, **FAST),
    ) as engine:
        with inject(
            FaultSpec(kind="raise", shards=(0, 2), times=1, only_workers=False)
        ):
            result = engine.find_instances(motif)
        report = engine.last_dispatch
    assert _keys(result.instances) == _keys(serial.instances)
    assert report.retry_rounds >= 1
    assert "task-error" in report.fault_categories
    assert report.final_backend == "process"


def test_shard_timeout_is_classified_and_retried(graph, motif, serial):
    """A shard delayed past the round deadline times out, is retried
    (fault fires only once), and the merged output is unchanged."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=2, timeout=0.5, **FAST),
    ) as engine:
        with inject(
            FaultSpec(
                kind="delay", shards=(1,), delay=2.0, times=1,
                only_workers=False,
            )
        ):
            result = engine.find_instances(motif)
        report = engine.last_dispatch
    assert _keys(result.instances) == _keys(serial.instances)
    assert "timeout" in report.fault_categories


def test_exhausted_retries_raise_with_fault_history(graph, motif):
    """With degradation disabled, a permanent fault must surface as
    ShardExecutionError carrying the classified history — never silently
    return partial results."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=1, degrade=False, **FAST),
    ) as engine:
        with inject(
            FaultSpec(kind="raise", times=10**9, only_workers=False)
        ):
            with pytest.raises(ShardExecutionError) as excinfo:
                engine.find_instances(motif)
    assert excinfo.value.faults  # classified history travels with the error
    assert all(f.category == "task-error" for f in excinfo.value.faults)
    assert "task-error" in str(excinfo.value)


def test_count_and_top_k_survive_transient_kill(graph, motif, serial):
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=2, **FAST),
    ) as engine:
        with inject(FaultSpec(kind="kill", shards=(0,), times=1)):
            count = engine.count_instances(motif)
        with inject(FaultSpec(kind="kill", shards=(2,), times=1)):
            top = engine.top_k(motif, k=3)
    assert count.count == serial.count
    assert [i.flow for i in top] == [
        i.flow for i in FlowMotifEngine(graph).top_k(motif, k=3)
    ]


def test_no_shm_segments_survive_engine_exit(graph, motif):
    """Even when workers are killed mid-shard, closing the engine leaves
    no shared-memory segment registered in this process."""
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process",
        retry_policy=RetryPolicy(max_retries=2, **FAST),
    ) as engine:
        with inject(FaultSpec(kind="kill", shards=(1,), times=1)):
            engine.find_instances(motif)
    assert active_segments() == []


def test_retry_rounds_are_deterministic(graph, motif):
    """Same fault plan, same policy → same recovery path (retry counts
    and fault categories), run to run."""
    def run():
        with ParallelFlowMotifEngine(
            graph, jobs=2, shards=3, backend="process",
            retry_policy=RetryPolicy(max_retries=2, seed=5, **FAST),
        ) as engine:
            with inject(
                FaultSpec(
                    kind="raise", shards=(1,), times=2, only_workers=False
                )
            ):
                engine.find_instances(motif)
            report = engine.last_dispatch
        return report.retry_rounds, report.fault_categories

    assert run() == run()

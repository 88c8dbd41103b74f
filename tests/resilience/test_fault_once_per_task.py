"""The chaos hook fires exactly once per shard task, on every transport.

:func:`repro.parallel.worker.run_shard_task` resolves the shard (pickled
slice, shared-memory store, or sealed segment), runs it traced or not,
and calls :func:`repro.resilience.faultinject.maybe_inject` once on the
way. A one-shot ``raise`` fault on shard 0 must therefore cost exactly
one failed attempt: the dispatch report records one fault, the plan's
attempt markers show one claim per task attempt (a second injection
inside the same task would claim a third), and the retried run merges
to the serial answer.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import obs
from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import ColumnStore
from repro.graph.interaction import InteractionGraph
from repro.graph.segments import open_segment, write_segment
from repro.parallel import BatchRunner, ParallelFlowMotifEngine
from repro.resilience import FaultSpec, RetryPolicy, inject

FAST = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05, jitter=0.0)
MOTIF = Motif.chain(3, delta=9, phi=4)


def _graph(seed: int = 3, num_events: int = 120) -> InteractionGraph:
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


def _run(engine: ParallelFlowMotifEngine, traced: bool):
    if not traced:
        return engine.find_instances(MOTIF)
    with obs.observe() as observation:
        result = engine.find_instances(MOTIF)
    names = [s["name"] for s in observation.spans()]
    assert names.count("worker.shard_task") == engine.num_shards
    return result


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("transport", ["pickled", "shm", "segment"])
def test_one_shot_fault_fires_once(tmp_path, request, transport, traced):
    graph = _graph()
    serial = FlowMotifEngine(graph).find_instances(MOTIF)
    source = graph
    if transport == "segment":
        path = str(tmp_path / "graph.seg")
        write_segment(ColumnStore.from_graph(graph.to_time_series()), path)
        source = open_segment(path).to_graph()
    elif transport == "pickled":
        request.getfixturevalue("shm_unavailable")
    engine = ParallelFlowMotifEngine(
        source, jobs=2, shards=3, backend="process", retry_policy=FAST
    )
    try:
        task = engine._shard_tasks(
            engine.partition(MOTIF.delta), "search",
            [(MOTIF, MOTIF.delta, MOTIF.phi)],
        )[0]
        assert (task.shard is not None) == (transport == "pickled")
        assert (task.shm_name is not None) == (transport == "shm")
        assert (task.segment_path is not None) == (transport == "segment")
        with inject(FaultSpec(kind="raise", shards=(0,), times=1)) as plan:
            result = _run(engine, traced)
            claims = len(os.listdir(plan.state_dir))
        report = engine.last_dispatch
    finally:
        engine.close()
    assert len(report.faults) == 1
    assert report.faults[0].shard_index == 0
    assert claims == 2  # the failed attempt and its clean retry
    assert result.count == serial.count
    assert _keys(result.instances) == _keys(serial.instances)


def test_batch_kind_filter_fires_on_batch_runs_only():
    graph = _graph()
    spec = FaultSpec(kind="raise", shards=(0,), task_kinds=("batch",))
    serial = FlowMotifEngine(graph).find_instances(MOTIF)

    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process", retry_policy=FAST
    ) as engine:
        with inject(spec) as plan:
            result = engine.find_instances(MOTIF)
            claims = len(os.listdir(plan.state_dir))
        assert engine.last_dispatch.faults == []
    assert claims == 0
    assert _keys(result.instances) == _keys(serial.instances)

    runner = BatchRunner(graph, jobs=2, shards=3, backend="process")
    runner._engine.retry_policy = FAST
    try:
        with inject(spec) as plan:
            (batch,) = runner.run([MOTIF])
            claims = len(os.listdir(plan.state_dir))
        faults = runner._engine.last_dispatch.faults
    finally:
        runner._engine.close()
    assert len(faults) == 1 and faults[0].shard_index == 0
    assert claims == 2
    assert _keys(batch.instances) == _keys(serial.instances)

"""Zero-copy process fan-out: parity, payload size, export lifecycle.

The ISSUE 3 acceptance property: columnar-backed search results
(find/count/top_k, all backends) must be identical to list-backed results
on randomized graphs, and the process backend's per-worker spawn payload
must shrink by ≥10× versus pickled shard slices.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import sys

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import columnarize
from repro.graph.interaction import InteractionGraph
from repro.parallel import BatchRunner, MotifConfig, ParallelFlowMotifEngine
from repro.parallel.partition import partition_time_range
from repro.parallel.worker import ShardTask
from repro.resilience.shm_registry import active_segments


def _random_graph(seed: int, num_events: int = 90) -> InteractionGraph:
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(6)]
    graph = InteractionGraph()
    for _ in range(num_events):
        src, dst = rng.sample(nodes, 2)
        time = float(rng.randrange(0, 40))  # ties + boundary anchors
        graph.add_interaction(src, dst, time, float(rng.randint(1, 9)))
    return graph


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


MOTIFS = [
    Motif.chain(2, delta=6, phi=3),
    Motif.chain(3, delta=9, phi=4),
    Motif.cycle(3, delta=14, phi=0),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
def test_columnar_graph_matches_list_backed_all_backends(seed, jobs):
    """find/count/top_k on a columnar-backed graph ≡ list-backed results."""
    graph = _random_graph(seed)
    ts = graph.to_time_series()
    columnar = columnarize(ts)
    for motif in MOTIFS:
        reference = FlowMotifEngine(ts).find_instances(motif)
        with ParallelFlowMotifEngine(
            columnar, jobs=jobs, shards=3
        ) as engine:
            found = engine.find_instances(motif)
            assert found.count == reference.count
            assert _keys(found.instances) == _keys(reference.instances)
            counted = engine.count_instances(motif)
            assert counted.count == reference.count
            top = engine.top_k(motif, 4)
            top_reference = FlowMotifEngine(ts).top_k(motif, 4)
            assert [pytest.approx(i.flow) for i in top] == [
                i.flow for i in top_reference
            ]


@pytest.mark.parametrize("seed", [0, 1])
def test_zero_copy_process_equals_pickled_process(seed, request):
    """The shm transport and the pickled-shard transport agree exactly."""
    graph = _random_graph(seed)
    motif = Motif.chain(3, delta=9, phi=4)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process"
    ) as shm_engine:
        a = shm_engine.find_instances(motif)
        assert shm_engine._zero_copy
    request.getfixturevalue("shm_unavailable")
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process"
    ) as pickled_engine:
        b = pickled_engine.find_instances(motif)
        assert not pickled_engine._zero_copy
    assert a.count == b.count
    assert _keys(a.instances) == _keys(b.instances)


def test_shm_export_oserror_falls_back_to_pickled_slices(shm_unavailable):
    """A full or missing /dev/shm makes the export raise OSError: the
    process engine ships pickled slices instead, tries the export once,
    and leaves no segment behind."""
    graph = _random_graph(6)
    motif = Motif.chain(3, delta=9, phi=4)
    queries = ((motif, 9.0, 4.0),)
    reference = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process"
    ) as engine:
        result = engine.find_instances(motif)
        assert shm_unavailable.call_count == 1
        tasks = engine._shard_tasks(engine.partition(9.0), "search", queries)
        assert all(t.shard is not None and t.shm_name is None for t in tasks)
        again = engine.count_instances(motif)
        assert shm_unavailable.call_count == 1  # the export is not retried
        assert engine.last_dispatch.final_backend == "process"
    assert active_segments() == []
    assert result.count == again.count == reference.count
    assert _keys(result.instances) == _keys(reference.instances)


def test_python_without_shared_memory_falls_back_to_pickled_slices(
    monkeypatch,
):
    """A Python built without POSIX shared memory cannot import
    ``multiprocessing.shared_memory``: the engine pickles instead."""
    monkeypatch.delattr(multiprocessing, "shared_memory", raising=False)
    monkeypatch.setitem(sys.modules, "multiprocessing.shared_memory", None)
    graph = _random_graph(7)
    motif = Motif.chain(3, delta=9, phi=4)
    reference = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=3, backend="process"
    ) as engine:
        result = engine.find_instances(motif)
        assert not engine._zero_copy
        assert engine.last_dispatch.final_backend == "process"
    assert active_segments() == []
    assert _keys(result.instances) == _keys(reference.instances)


def test_spawn_payload_at_least_10x_smaller():
    """Per-worker ShardTask payloads: (shm_name, bounds) vs pickled slices."""
    graph = _random_graph(0, num_events=600)
    ts = graph.to_time_series()
    motif = Motif.chain(3, delta=9, phi=4)
    queries = ((motif, 9.0, 4.0),)
    pickled_shards = partition_time_range(ts, 4, 9.0)
    pickled_bytes = sum(
        len(pickle.dumps(ShardTask("search", s.bounds, queries, shard=s)))
        for s in pickled_shards
    )
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=4, backend="process"
    ) as engine:
        tasks = engine._shard_tasks(engine.partition(9.0), "search", queries)
        assert all(t.shm_name and t.shard is None for t in tasks)
        zero_copy_bytes = sum(len(pickle.dumps(t)) for t in tasks)
    assert pickled_bytes >= 10 * zero_copy_bytes, (
        f"payload only shrank {pickled_bytes / zero_copy_bytes:.1f}x "
        f"({pickled_bytes} -> {zero_copy_bytes} bytes)"
    )


def test_export_created_lazily_and_reused_across_queries():
    graph = _random_graph(1)
    engine = ParallelFlowMotifEngine(graph, jobs=2, shards=2, backend="process")
    try:
        assert engine._export is None  # nothing exported before a query
        engine.find_instances(MOTIFS[0])
        first = engine._shared_store().shm_name
        engine.count_instances(MOTIFS[1])
        assert engine._shared_store().shm_name == first  # one block, reused
    finally:
        engine.close()
    assert engine._export is None
    engine.close()  # idempotent


def test_columnar_graph_without_shm_still_pickles(shm_unavailable):
    """The pickled fallback must work even when the *parent* graph is
    columnar-backed: materialized shards are list-backed copies
    (memoryview slices cannot pickle)."""
    graph = _random_graph(5)
    ts = graph.to_time_series()
    motif = Motif.chain(3, delta=9, phi=4)
    reference = FlowMotifEngine(ts).find_instances(motif)
    with ParallelFlowMotifEngine(
        columnarize(ts), jobs=2, shards=3, backend="process"
    ) as engine:
        result = engine.find_instances(motif)
        report = engine.last_dispatch
    assert shm_unavailable.call_count == 1
    assert report.faults == [] and report.degradations == []
    assert report.final_backend == "process"
    assert result.count == reference.count
    assert _keys(result.instances) == _keys(reference.instances)


def test_huge_int_timestamps_fall_back_to_pickled_transport():
    """int values past 2^53 cannot live in float64 columns bit-exactly;
    the engine must keep the pickled transport rather than silently
    altering timestamps."""
    base = 2 ** 53
    graph = InteractionGraph.from_tuples([
        ("a", "b", base + 1, 5.0),
        ("b", "c", base + 3, 4.0),
        ("b", "c", base + 5, 2.0),
    ])
    motif = Motif.chain(3, delta=10, phi=3)
    reference = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=2, backend="process"
    ) as engine:
        result = engine.find_instances(motif)
        assert not engine._zero_copy  # export attempt flipped the flag
    assert result.count == reference.count == 1


def test_single_shard_runs_inline_without_export():
    """One shard never leaves the parent process, so the engine must not
    pay a shared-memory export (nor attach to its own block)."""
    graph = _random_graph(4)
    motif = Motif.chain(3, delta=9, phi=4)
    reference = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(
        graph, jobs=4, shards=1, backend="process"
    ) as engine:
        assert engine._zero_copy  # zero-copy configured...
        result = engine.find_instances(motif)
        assert engine._export is None  # ...but never exported
    assert result.count == reference.count
    assert _keys(result.instances) == _keys(reference.instances)


def test_exotic_node_ids_fall_back_to_pickled_transport():
    """Tuple node ids cannot live in the JSON pair table; the process
    backend must silently keep the pickled-shard transport (the PR-2
    behaviour) instead of failing at query time."""
    graph = InteractionGraph.from_tuples([
        ((0, "a"), (1, "b"), 1.0, 5.0),
        ((1, "b"), (2, "c"), 2.0, 4.0),
        ((1, "b"), (2, "c"), 3.0, 2.0),
    ])
    motif = Motif.chain(3, delta=10, phi=3)
    reference = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=2, backend="process"
    ) as engine:
        result = engine.find_instances(motif)
        assert not engine._zero_copy  # export attempt flipped the flag
        assert engine._export is None
        again = engine.find_instances(motif)  # pickled path, post-fallback
    assert result.count == again.count == reference.count == 1


def test_inline_run_skips_shared_memory():
    graph = _random_graph(2)
    with ParallelFlowMotifEngine(graph, jobs=1, shards=2) as engine:
        assert not engine._zero_copy
        engine.find_instances(MOTIFS[0])
        assert engine._export is None


def test_batch_runner_zero_copy_parity():
    graph = _random_graph(3)
    configs = [
        MotifConfig(Motif.chain(3, delta=9, phi=0)),
        MotifConfig(Motif.chain(3, delta=9, phi=0), delta=5.0),
        MotifConfig(Motif.cycle(3, delta=14, phi=0)),
    ]
    serial = BatchRunner(graph, jobs=1).run(configs)
    sharded = BatchRunner(graph, jobs=2, shards=3, backend="process").run(configs)
    for a, b in zip(serial, sharded):
        assert a.count == b.count
        assert _keys(a.instances) == _keys(b.instances)

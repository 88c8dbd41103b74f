"""Property tests: parallel output ≡ serial output, any sharding.

Seeded-random interaction graphs (seeds derived from the shared
``base_seed`` fixture in ``tests/conftest.py`` — failures print the exact
seed, ``REPRO_TEST_SEED`` reproduces it) stress the partitioner where it
can go wrong: duplicate parallel edges (including identical (src, dst, time)
triples), tied timestamps, δ-windows straddling shard boundaries, and
anchors landing exactly on cut points (integer timestamps + cuts at
event-count quantiles, which are event times, guarantee boundary anchors). For every graph,
motif, shard count and job count, the parallel engine must return exactly
the serial engine's instance set, flows, and counts. Lists compare in
order too: one shard returns serial's list, and a job count never
changes a sharded list.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.parallel import ParallelFlowMotifEngine

SHARD_COUNTS = [1, 2, 3, 8]
JOB_COUNTS = [1, 2, 4]


def _random_graph(seed: int, num_events: int = 90) -> InteractionGraph:
    """Dense random multigraph with duplicate edges and many tied times."""
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(6)]
    graph = InteractionGraph()
    for _ in range(num_events):
        src, dst = rng.sample(nodes, 2)
        time = float(rng.randrange(0, 40))  # integer grid: ties + boundary hits
        flow = float(rng.randint(1, 9))
        graph.add_interaction(src, dst, time, flow)
        if rng.random() < 0.2:
            # Exact duplicate edge: same pair, same timestamp.
            graph.add_interaction(src, dst, time, float(rng.randint(1, 9)))
    return graph


def _motifs():
    return [
        Motif.chain(2, delta=6, phi=3),
        Motif.chain(3, delta=9, phi=4),
        Motif.cycle(3, delta=14, phi=0),
    ]


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


def _ordered(instances):
    return [i.canonical_key() for i in instances]


@pytest.mark.parametrize("case", [0, 1, 2])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_find_instances_equals_serial(case, shards, base_seed):
    graph = _random_graph(base_seed + case)
    serial_engine = FlowMotifEngine(graph)
    parallel_engine = ParallelFlowMotifEngine(graph, jobs=1, shards=shards)
    for motif in _motifs():
        serial = serial_engine.find_instances(motif)
        parallel = parallel_engine.find_instances(motif)
        assert parallel.count == serial.count
        assert _keys(parallel.instances) == _keys(serial.instances)
        assert sorted(parallel.flows()) == sorted(serial.flows())
        if shards == 1:  # one shard is serial's list, in serial's order
            assert _ordered(parallel.instances) == _ordered(serial.instances)


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_jobs_do_not_change_results(jobs, base_seed):
    graph = _random_graph(seed=base_seed + 3)
    motif = Motif.chain(3, delta=9, phi=4)
    serial = FlowMotifEngine(graph).find_instances(motif)
    with ParallelFlowMotifEngine(graph, jobs=jobs, shards=4) as engine:
        parallel = engine.find_instances(motif)
    assert _keys(parallel.instances) == _keys(serial.instances)


@pytest.mark.parametrize("case", [4, 5])
def test_three_shard_cycle_search_equals_serial(case, base_seed):
    graph = _random_graph(base_seed + case)
    motif = Motif.cycle(3, delta=12, phi=2)
    serial = FlowMotifEngine(graph).find_instances(motif)
    parallel = ParallelFlowMotifEngine(
        graph, jobs=1, shards=3
    ).find_instances(motif)
    assert _keys(parallel.instances) == _keys(serial.instances)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_counts_and_top_k_equal_serial(shards, base_seed):
    graph = _random_graph(seed=base_seed + 6)
    serial_engine = FlowMotifEngine(graph)
    parallel_engine = ParallelFlowMotifEngine(graph, jobs=1, shards=shards)
    for motif in _motifs():
        assert (
            parallel_engine.count_instances(motif).count
            == serial_engine.count_instances(motif).count
        )
        serial_top = serial_engine.top_k(motif, 7)
        parallel_top = parallel_engine.top_k(motif, 7)
        assert [i.flow for i in parallel_top] == [i.flow for i in serial_top]


def test_parallel_runs_are_mutually_deterministic(base_seed):
    """Same query, different job counts → identical find and top-k
    lists, order included."""
    graph = _random_graph(seed=base_seed + 8)
    motifs = _motifs() + [Motif.chain(3, delta=9, phi=2)]
    for shards in (3, 4):
        inline = ParallelFlowMotifEngine(graph, jobs=1, shards=shards)
        with ParallelFlowMotifEngine(graph, jobs=2, shards=shards) as pooled:
            for motif in motifs:
                assert _ordered(pooled.find_instances(motif).instances) == (
                    _ordered(inline.find_instances(motif).instances)
                )
                assert _ordered(pooled.top_k(motif, 7)) == _ordered(
                    inline.top_k(motif, 7)
                )

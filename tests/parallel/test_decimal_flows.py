"""List-backed shards sum decimal flows exactly as the parent graph does.

A shard's series are slices of the parent's. If a slice re-summed its
prefix sums from 0, ``cum[hi + 1] - cum[lo]`` could round differently
than in the parent, and an aggregate sitting on φ would pass in one and
fail in the other. Flows drawn from {0.1, 0.2, 0.3, 0.7} hit that often.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.columnar import columnarize
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries
from repro.parallel.engine import ParallelFlowMotifEngine

MOTIFS = [
    Motif.chain(3, delta=6, phi=0.3),
    Motif.cycle(3, delta=8, phi=0.5),
    Motif.chain(4, delta=10, phi=0.6),
]


def _decimal_graph(seed: int) -> InteractionGraph:
    rng = random.Random(seed)
    graph = InteractionGraph()
    for _ in range(rng.randint(10, 40)):
        u, v = rng.sample(range(5), 2)
        graph.add_interaction(
            u, v, rng.randint(0, 30), rng.choice([0.1, 0.2, 0.3, 0.7])
        )
    return graph


def _keys(result):
    return sorted(i.canonical_key() for i in result.instances)


def test_slice_keeps_parent_prefix_sums():
    series = EdgeSeries("u", "v", [1, 2, 3, 4], [0.1, 0.2, 0.7, 0.3])
    part = series.slice(1, 2)
    assert part.times == [2, 3] and part.flows == [0.2, 0.7]
    assert part.total_flow == series.flow_between(1, 2)
    assert part.flow_between(0, 0) == series.flow_between(1, 1)


def test_base_slice_of_columnar_series_is_a_picklable_list_copy():
    """Shards materialized off a columnar graph use the base slice so the
    process backend can pickle them; it must not hand back memoryviews."""
    ts = _decimal_graph(3).to_time_series()
    for series in columnarize(ts).all_series():
        hi = len(series) - 1
        part = EdgeSeries.slice(series, 0, hi)
        assert type(part.times) is list and type(part.flows) is list
        assert type(part._cum) is list
        assert part.total_flow == series.flow_between(0, hi)
        clone = pickle.loads(pickle.dumps(part))
        assert clone.times == part.times and clone.flows == part.flows


def test_sharded_search_matches_serial_on_decimal_flows():
    disagreements = []
    for seed in range(60):
        graph = _decimal_graph(seed)
        serial = FlowMotifEngine(graph)
        with ParallelFlowMotifEngine(graph, jobs=1, shards=3) as sharded:
            for motif in MOTIFS:
                if _keys(serial.find_instances(motif)) != _keys(
                    sharded.find_instances(motif)
                ):
                    disagreements.append((seed, str(motif)))
    assert disagreements == []

"""Unit tests for the δ-overlap time-range partitioner."""

from __future__ import annotations

import math

import pytest

from repro.graph.interaction import InteractionGraph
from repro.parallel.partition import partition_time_range


def _grid_graph(num_events: int = 60) -> InteractionGraph:
    """A deterministic multigraph with duplicate edges and tied times."""
    tuples = []
    nodes = ["a", "b", "c", "d"]
    for i in range(num_events):
        src = nodes[i % 4]
        dst = nodes[(i + 1) % 4]
        time = float(i % 20)  # many ties, duplicate (src, dst, t) triples
        tuples.append((src, dst, time, 1.0 + (i % 5)))
    return InteractionGraph.from_tuples(tuples)


class TestCoreRanges:
    def test_cores_cover_timeline_disjointly(self):
        graph = _grid_graph()
        shards = partition_time_range(graph, 4, halo=3.0)
        assert shards[0].core_start == -math.inf
        assert shards[-1].core_end == math.inf
        for left, right in zip(shards, shards[1:]):
            assert left.core_end == right.core_start

    def test_every_event_owned_by_exactly_one_core(self):
        graph = _grid_graph()
        shards = partition_time_range(graph, 4, halo=3.0)
        for it in graph.interactions():
            owners = [s.index for s in shards if s.owns_anchor(it.time)]
            assert len(owners) == 1

    def test_single_shard_holds_everything(self):
        graph = _grid_graph()
        (shard,) = partition_time_range(graph, 1, halo=5.0)
        assert shard.num_events == graph.num_edges
        assert shard.owns_anchor(-1e9) and shard.owns_anchor(1e9)

    def test_requests_beyond_distinct_times_collapse(self):
        graph = InteractionGraph.from_tuples(
            [("a", "b", 1.0, 1.0), ("a", "b", 1.0, 2.0)]
        )
        shards = partition_time_range(graph, 8, halo=1.0)
        assert 1 <= len(shards) <= 8
        total_owned = sum(
            1 for s in shards for it in graph.interactions() if s.owns_anchor(it.time)
        )
        assert total_owned == graph.num_edges


class TestHaloAndOffsets:
    def test_halo_events_present_in_neighbour_shard(self):
        graph = _grid_graph()
        halo = 4.0
        shards = partition_time_range(graph, 3, halo=halo)
        for shard in shards:
            lo = shard.core_start - halo
            hi = shard.core_end + halo
            expected = sum(1 for it in graph.interactions() if lo <= it.time <= hi)
            assert shard.num_events == expected

    def test_offsets_map_slices_back_to_parent(self):
        graph = _grid_graph()
        ts = graph.to_time_series()
        for shard in partition_time_range(graph, 4, halo=2.0):
            for series in shard.graph.all_series():
                parent = ts.series(series.src, series.dst)
                offset = shard.offsets[(series.src, series.dst)]
                for i in range(len(series)):
                    assert parent.time(i + offset) == series.time(i)
                    assert parent.flow(i + offset) == series.flow(i)

    def test_zero_halo_allowed(self):
        graph = _grid_graph()
        shards = partition_time_range(graph, 2, halo=0.0)
        assert sum(
            1 for s in shards for it in graph.interactions() if s.owns_anchor(it.time)
        ) == graph.num_edges


class TestStrategiesAndErrors:
    def test_events_strategy_balances_load(self):
        # Heavily skewed timeline: most events in one narrow burst.
        tuples = [("a", "b", 0.001 * i, 1.0) for i in range(90)]
        tuples += [("a", "b", 100.0 + i, 1.0) for i in range(10)]
        graph = InteractionGraph.from_tuples(tuples)
        shards = partition_time_range(graph, 2, halo=0.0)
        core_counts = [
            sum(1 for it in graph.interactions() if s.owns_anchor(it.time))
            for s in shards
        ]
        # Equal-width cores would put 90 events in one shard.
        assert core_counts == [50, 50]

    def test_accepts_time_series_graph(self):
        graph = _grid_graph()
        shards = partition_time_range(graph.to_time_series(), 2, halo=1.0)
        assert len(shards) == 2

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(num_shards=0, halo=1.0), ValueError),
            (dict(num_shards=2, halo=-1.0), ValueError),
            (dict(num_shards=-3, halo=1.0), ValueError),
        ],
    )
    def test_invalid_arguments(self, kwargs, error):
        with pytest.raises(error):
            partition_time_range(_grid_graph(), **kwargs)

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            partition_time_range([("a", "b", 1.0, 1.0)], 2, halo=1.0)

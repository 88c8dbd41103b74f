"""EdgeSeries and TimeSeriesGraph behaviour."""

from __future__ import annotations

import math

import pytest

from repro.graph.events import Interaction
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph


class _CountingLabel:
    """A node label that counts how often any label is repr()'d."""

    calls = 0

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, _CountingLabel) and other.name == self.name

    def __repr__(self):
        _CountingLabel.calls += 1
        return f"_CountingLabel({self.name!r})"


@pytest.fixture
def series():
    # Deliberately unsorted input; constructor must sort by time.
    return EdgeSeries("u", "v", [15, 10, 13, 18], [7, 5, 2, 3])


class TestEdgeSeriesConstruction:
    def test_sorted_by_time(self, series):
        assert series.times == [10, 13, 15, 18]
        assert series.flows == [5, 2, 7, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EdgeSeries("u", "v", [1, 2], [1.0])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EdgeSeries("u", "v", [], [])

    def test_non_positive_flow_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EdgeSeries("u", "v", [1, 2], [1.0, 0.0])

    def test_stable_order_for_ties(self):
        s = EdgeSeries("u", "v", [5, 5, 5], [1.0, 2.0, 3.0])
        assert s.flows == [1.0, 2.0, 3.0]

    def test_iteration_yields_pairs(self, series):
        assert list(series) == [(10, 5), (13, 2), (15, 7), (18, 3)]

    def test_equality_and_hash(self):
        a = EdgeSeries("u", "v", [1, 2], [1.0, 2.0])
        b = EdgeSeries("u", "v", [2, 1], [2.0, 1.0])  # same after sorting
        assert a == b
        assert hash(a) == hash(b)
        assert a != EdgeSeries("u", "w", [1, 2], [1.0, 2.0])


class TestEdgeSeriesQueries:
    def test_total_flow(self, series):
        assert series.total_flow == 17

    def test_first_last_time(self, series):
        assert series.first_time == 10
        assert series.last_time == 18

    def test_first_index_at_or_after(self, series):
        assert series.first_index_at_or_after(10) == 0
        assert series.first_index_at_or_after(10.5) == 1
        assert series.first_index_at_or_after(18) == 3
        assert series.first_index_at_or_after(19) == 4  # past the end

    def test_first_index_after(self, series):
        assert series.first_index_after(10) == 1
        assert series.first_index_after(9.9) == 0
        assert series.first_index_after(18) == 4

    def test_last_index_at_or_before(self, series):
        assert series.last_index_at_or_before(9) == -1
        assert series.last_index_at_or_before(10) == 0
        assert series.last_index_at_or_before(100) == 3

    def test_flow_between_inclusive(self, series):
        assert series.flow_between(0, 3) == 17
        assert series.flow_between(1, 2) == 9
        assert series.flow_between(2, 2) == 7

    def test_flow_between_empty_range(self, series):
        assert series.flow_between(2, 1) == 0.0

    def test_flow_in_interval(self, series):
        assert series.flow_in_interval(10, 15) == 14
        assert series.flow_in_interval(11, 14) == 2
        assert series.flow_in_interval(19, 30) == 0.0

    def test_indices_in_interval(self, series):
        assert series.indices_in_interval(13, 18) == (1, 3)
        lo, hi = series.indices_in_interval(19, 30)
        assert hi < lo

    def test_items_range(self, series):
        assert series.items(1, 2) == [(13, 2), (15, 7)]

    def test_tied_timestamps_flow_queries(self):
        s = EdgeSeries("u", "v", [5, 5, 7], [1.0, 2.0, 4.0])
        assert s.flow_in_interval(5, 5) == 3.0
        assert s.first_index_after(5) == 2


class TestTimeSeriesGraph:
    @pytest.fixture
    def graph(self):
        return TimeSeriesGraph.from_interactions(
            [
                Interaction("a", "b", 1, 1.0),
                Interaction("a", "b", 3, 2.0),
                Interaction("b", "c", 2, 5.0),
                Interaction("c", "a", 4, 1.0),
            ]
        )

    def test_series_lookup(self, graph):
        s = graph.series("a", "b")
        assert s is not None
        assert list(s) == [(1, 1.0), (3, 2.0)]
        assert graph.series("b", "a") is None

    def test_counts(self, graph):
        assert graph.num_nodes == 3
        assert graph.num_series == 3
        assert graph.num_events == 4

    def test_adjacency(self, graph):
        assert [s.dst for s in graph.out_series("a")] == ["b"]
        assert [s.src for s in graph.in_series("a")] == ["c"]
        assert graph.out_series("missing") == []

    def test_has_edge(self, graph):
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")

    def test_all_series_deterministic(self, graph):
        pairs = [(s.src, s.dst) for s in graph.all_series()]
        assert pairs == sorted(pairs, key=repr)

    def test_duplicate_series_rejected(self):
        s1 = EdgeSeries("a", "b", [1], [1.0])
        s2 = EdgeSeries("a", "b", [2], [2.0])
        with pytest.raises(ValueError, match="duplicate"):
            TimeSeriesGraph([s1, s2])

    def test_empty_graph(self):
        g = TimeSeriesGraph([])
        assert g.num_nodes == 0
        assert g.num_series == 0
        assert g.all_series() == []


class TestEdgeSeriesAppend:
    """Streaming growth: O(1) amortized, in-place, order-validated."""

    def test_append_extends_everything_in_place(self):
        series = EdgeSeries("a", "b", [1.0, 3.0], [2.0, 4.0])
        series.append(5.0, 6.0)
        assert len(series) == 3
        assert series.times == [1.0, 3.0, 5.0]
        assert series.total_flow == 12.0
        assert series.flow_between(0, 2) == 12.0
        assert series.last_index_at_or_before(5.0) == 2
        assert series.flow_in_interval(3.0, 5.0) == 10.0

    def test_append_tied_timestamp_allowed(self):
        series = EdgeSeries("a", "b", [1.0], [2.0])
        series.append(1.0, 3.0)
        assert series.times == [1.0, 1.0]
        assert series.total_flow == 5.0

    def test_append_out_of_order_rejected(self):
        series = EdgeSeries("a", "b", [5.0], [1.0])
        with pytest.raises(ValueError, match="out of order"):
            series.append(4.0, 1.0)

    def test_append_non_positive_flow_rejected(self):
        series = EdgeSeries("a", "b", [1.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            series.append(2.0, 0.0)

    def test_cached_reference_sees_new_elements(self):
        """Holders of the series object (cached structural matches)
        observe appends immediately — the identity never changes."""
        series = EdgeSeries("a", "b", [1.0], [1.0])
        alias = series
        series.append(2.0, 3.0)
        assert alias.flow_in_interval(0.0, 10.0) == 4.0


class TestGrowableTimeSeriesGraph:
    def test_append_existing_pair_keeps_identity(self):
        from repro.graph.timeseries import GrowableTimeSeriesGraph

        graph = GrowableTimeSeriesGraph()
        assert graph.append("a", "b", 1.0, 2.0) is True
        series = graph.series("a", "b")
        assert graph.append("a", "b", 3.0, 4.0) is False
        assert graph.series("a", "b") is series
        assert len(series) == 2
        assert graph.num_events == 2

    def test_new_pair_splices_adjacency_and_order(self):
        """Every read, interleaved with new-pair appends, equals a
        from-scratch graph over the same series. The labels mix ints and
        strs, whose repr order is not their natural order, so a stale
        cache or a wrong insert position shows. The graph starts from
        constructed series, as a checkpoint restore does."""
        import random

        from repro.graph.timeseries import GrowableTimeSeriesGraph

        def pairs(series_list):
            return [(s.src, s.dst) for s in series_list]

        labels = [1, "1", 10, "a", "b"]
        all_pairs = [(u, v) for u in labels for v in labels if u != v]
        random.Random(7).shuffle(all_pairs)
        initial = 4
        graph = GrowableTimeSeriesGraph(
            EdgeSeries(u, v, [0.0], [1.0]) for u, v in all_pairs[:initial]
        )
        for t in range(initial, len(all_pairs)):
            src, dst = all_pairs[t]
            assert graph.append(src, dst, float(t), 1.0) is True
            if t % 3 == 0:
                assert graph.append(src, dst, float(t), 2.0) is False
            rebuilt = TimeSeriesGraph(
                EdgeSeries(u, v, list(s.times), list(s.flows))
                for u, v in all_pairs[: t + 1]
                for s in [graph.series(u, v)]
            )
            assert pairs(graph.all_series()) == pairs(rebuilt.all_series())
            for node in labels:
                assert pairs(graph.out_series(node)) == pairs(
                    rebuilt.out_series(node)
                )
                assert pairs(graph.in_series(node)) == pairs(
                    rebuilt.in_series(node)
                )
            assert graph.nodes == rebuilt.nodes
            assert graph.num_nodes == rebuilt.num_nodes
            assert graph.num_events == rebuilt.num_events
        assert graph.num_series == len(all_pairs)

    def test_new_pair_cost_is_logarithmic_in_degree(self):
        """N new pairs out of one hub, then N into one sink, must stay
        within c * N * log2(N) label reprs; a linear scan over the hub's
        adjacency list per insert makes about N**2 / 2."""
        from repro.graph.timeseries import GrowableTimeSeriesGraph

        n = 400
        hub, sink = _CountingLabel("hub"), _CountingLabel("sink")
        leaves = [_CountingLabel(f"n{i:04d}") for i in range(n)]
        graph = GrowableTimeSeriesGraph()
        _CountingLabel.calls = 0
        for t, leaf in enumerate(leaves):
            graph.append(hub, leaf, float(t), 1.0)
        for t, leaf in enumerate(leaves):
            graph.append(leaf, sink, float(n + t), 1.0)
        assert _CountingLabel.calls <= 2 * n * math.log2(n)
        assert [s.dst for s in graph.out_series(hub)] == leaves
        assert [s.src for s in graph.in_series(sink)] == leaves

    def test_growable_equals_from_interactions(self):
        """Growing event-by-event must give the same graph as batch
        construction on the full stream."""
        import random

        from repro.graph.events import Interaction
        from repro.graph.timeseries import GrowableTimeSeriesGraph

        rng = random.Random(5)
        stream = []
        for _ in range(60):
            u, v = rng.sample("abcde", 2)
            stream.append((u, v, float(rng.randrange(0, 30)), float(rng.randint(1, 5))))
        stream.sort(key=lambda e: e[2])
        grown = GrowableTimeSeriesGraph()
        for src, dst, t, f in stream:
            grown.append(src, dst, t, f)
        batch = TimeSeriesGraph.from_interactions(
            Interaction(*e) for e in stream
        )
        assert grown.num_events == batch.num_events
        assert grown.nodes == batch.nodes
        assert grown.all_series() == batch.all_series()

    def test_per_pair_out_of_order_rejected(self):
        from repro.graph.timeseries import GrowableTimeSeriesGraph

        graph = GrowableTimeSeriesGraph()
        graph.append("a", "b", 5.0, 1.0)
        with pytest.raises(ValueError, match="out of order"):
            graph.append("a", "b", 4.0, 1.0)

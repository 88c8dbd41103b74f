"""Phase P2: Algorithm 1 maximal-instance enumeration."""

from __future__ import annotations

import pytest

from repro.core.enumeration import (
    enumerate_window_ranges,
    find_instances,
    find_instances_in_match,
    window_branches,
)
from repro.core.instance import is_maximal, is_valid_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.windows import Window
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries


def chain_graph(*events):
    """Build a graph from (src, dst, t, f) tuples."""
    return InteractionGraph.from_tuples(events)


def run_search(graph, motif, **kwargs):
    ts = graph.to_time_series()
    matches = find_structural_matches(ts, motif)
    return find_instances(matches, **kwargs), ts


class TestBasicEnumeration:
    def test_single_edge_motif(self):
        g = chain_graph(("a", "b", 1, 2.0), ("a", "b", 5, 3.0), ("a", "b", 40, 1.0))
        motif = Motif.chain(2, delta=10, phi=0)
        instances, ts = run_search(g, motif)
        keys = {tuple(i.runs[0].items()) for i in instances}
        assert keys == {((1, 2.0), (5, 3.0)), ((40, 1.0),)}

    def test_two_edge_chain(self):
        g = chain_graph(("a", "b", 1, 2.0), ("b", "c", 2, 3.0))
        motif = Motif.chain(3, delta=10, phi=0)
        instances, _ = run_search(g, motif)
        assert len(instances) == 1
        assert instances[0].flow == 2.0

    def test_order_violation_no_instance(self):
        g = chain_graph(("a", "b", 5, 2.0), ("b", "c", 2, 3.0))
        motif = Motif.chain(3, delta=10, phi=0)
        instances, _ = run_search(g, motif)
        assert instances == []

    def test_delta_excludes_far_events(self):
        g = chain_graph(("a", "b", 0, 2.0), ("b", "c", 100, 3.0))
        motif = Motif.chain(3, delta=10, phi=0)
        instances, _ = run_search(g, motif)
        assert instances == []

    def test_phi_filters_instances(self):
        g = chain_graph(("a", "b", 1, 2.0), ("b", "c", 2, 3.0))
        motif = Motif.chain(3, delta=10, phi=2.5)
        instances, _ = run_search(g, motif)
        assert instances == []  # e1 aggregate 2.0 < 2.5

    def test_phi_met_by_aggregation(self):
        """The multi-edge semantics: two small transfers aggregate over φ."""
        g = chain_graph(
            ("a", "b", 1, 2.0), ("a", "b", 2, 2.0), ("b", "c", 3, 5.0)
        )
        motif = Motif.chain(3, delta=10, phi=4.0)
        instances, _ = run_search(g, motif)
        assert len(instances) == 1
        assert tuple(instances[0].runs[0].items()) == ((1, 2.0), (2, 2.0))


class TestOutputInvariants:
    @pytest.fixture
    def busy_graph(self):
        return chain_graph(
            ("a", "b", 1, 2.0), ("a", "b", 3, 1.0), ("a", "b", 7, 4.0),
            ("b", "c", 2, 3.0), ("b", "c", 5, 1.0), ("b", "c", 9, 2.0),
            ("c", "a", 4, 2.0), ("c", "a", 8, 5.0), ("c", "a", 11, 1.0),
        )

    @pytest.mark.parametrize("delta,phi", [(4, 0), (6, 2), (10, 0), (10, 3)])
    def test_all_valid_and_maximal(self, busy_graph, delta, phi):
        motif = Motif.cycle(3, delta=delta, phi=phi)
        instances, ts = run_search(busy_graph, motif)
        for inst in instances:
            ok, reason = is_valid_instance(inst, ts)
            assert ok, reason
            assert is_maximal(inst)

    @pytest.mark.parametrize("delta,phi", [(4, 0), (10, 0), (10, 2)])
    def test_no_duplicates(self, busy_graph, delta, phi):
        motif = Motif.cycle(3, delta=delta, phi=phi)
        instances, _ = run_search(busy_graph, motif)
        keys = [i.canonical_key() for i in instances]
        assert len(keys) == len(set(keys))

    def test_delta_growth_dominates(self, busy_graph):
        """Counts need not be monotone in δ (a wider window can merge two
        maximal instances into one), but every maximal instance at a
        smaller δ must be *dominated* by one at a larger δ: same vertices,
        every edge-set contained in the larger instance's edge-set."""
        motif = Motif.chain(3, delta=1, phi=0)
        ts = busy_graph.to_time_series()
        matches = find_structural_matches(ts, motif)
        deltas = (1, 2, 4, 8, 12)
        results = {d: find_instances(matches, delta=d) for d in deltas}

        def dominated(small, larger_list):
            small_sets = [set(r.items()) for r in small.runs]
            for big in larger_list:
                if big.vertex_map != small.vertex_map:
                    continue
                big_sets = [set(r.items()) for r in big.runs]
                if all(s <= b for s, b in zip(small_sets, big_sets)):
                    return True
            return False

        for d_small, d_large in zip(deltas, deltas[1:]):
            for inst in results[d_small]:
                assert dominated(inst, results[d_large]), (d_small, d_large)

    def test_antitone_in_phi(self, busy_graph):
        motif = Motif.chain(3, delta=8, phi=0)
        ts = busy_graph.to_time_series()
        matches = find_structural_matches(ts, motif)
        counts = [
            len(find_instances(matches, phi=p)) for p in (0, 1, 2, 4, 8)
        ]
        assert counts == sorted(counts, reverse=True)


class TestAblationModes:
    def test_pruning_off_same_results(self, fig7_graph):
        motif = Motif.cycle(3, delta=10, phi=5)
        ts = fig7_graph.to_time_series()
        matches = find_structural_matches(ts, motif)
        fast = {i.canonical_key() for i in find_instances(matches)}
        slow = {
            i.canonical_key()
            for i in find_instances(matches, prefix_pruning=False)
        }
        assert fast == slow

    def test_skip_rule_off_is_superset_with_nonmaximal(self, fig7_graph):
        """Without the skip rule, extra (non-maximal) instances appear but
        every maximal instance is still found."""
        motif = Motif.cycle(3, delta=10, phi=0)
        ts = fig7_graph.to_time_series()
        matches = find_structural_matches(ts, motif)
        with_rule = {i.canonical_key() for i in find_instances(matches)}
        without_rule = find_instances(matches, skip_rule=False)
        without_keys = {i.canonical_key() for i in without_rule}
        assert with_rule <= without_keys
        extras = [
            i for i in without_rule if i.canonical_key() not in with_rule
        ]
        assert extras, "skip rule should prune something on this input"
        assert all(not is_maximal(i) for i in extras)


class TestStreamingCallback:
    def test_on_instance_streams(self, fig7_graph):
        motif = Motif.cycle(3, delta=10, phi=0)
        ts = fig7_graph.to_time_series()
        matches = find_structural_matches(ts, motif)
        seen = []
        returned = find_instances(matches, on_instance=seen.append)
        assert returned == []
        assert len(seen) == len(find_instances(matches))


class TestTiedTimestamps:
    def test_tied_elements_inseparable(self):
        """Elements sharing a timestamp must land in the same edge-set."""
        g = chain_graph(
            ("a", "b", 1, 1.0), ("a", "b", 1, 2.0), ("b", "c", 5, 1.0)
        )
        motif = Motif.chain(3, delta=10, phi=0)
        instances, _ = run_search(g, motif)
        assert len(instances) == 1
        assert sorted(instances[0].runs[0].items()) == [(1, 1.0), (1, 2.0)]

    def test_tie_across_edges_blocks_order(self):
        """Strictly-increasing order forbids equal timestamps across sets."""
        g = chain_graph(("a", "b", 5, 1.0), ("b", "c", 5, 1.0))
        motif = Motif.chain(3, delta=10, phi=0)
        instances, _ = run_search(g, motif)
        assert instances == []


class TestParallelMotifEdges:
    def test_same_pair_twice_in_motif(self):
        """A motif path may traverse the same vertex pair twice (u→v→u→v);
        the two motif edges then split the same series."""
        g = chain_graph(
            ("a", "b", 1, 1.0), ("b", "a", 2, 1.0), ("a", "b", 3, 1.0)
        )
        motif = Motif([0, 1, 0, 1], delta=10, phi=0)
        instances, ts = run_search(g, motif)
        assert len(instances) == 1
        inst = instances[0]
        assert [tuple(r.items()) for r in inst.runs] == [
            ((1, 1.0),), ((2, 1.0),), ((3, 1.0),)
        ]
        ok, reason = is_valid_instance(inst, ts)
        assert ok, reason


def edge(src, dst, times, flows=None):
    return EdgeSeries(src, dst, times, flows or [1.0] * len(times))


class TestWindowBranches:
    """The one ``FindInstances`` step shared by enumeration, counting and
    top-k: ``(j, next_start, prefix_flow)`` per valid prefix of edge i."""

    def test_start_outside_window_has_no_branches(self):
        first = edge("a", "b", [1, 3, 20])
        second = edge("b", "c", [2, 4])
        pair = [first, second]
        assert window_branches(pair, 0, 3, 10, 0.0) == []  # past the series
        assert window_branches(pair, 0, 2, 10, 0.0) == []  # past the window
        assert window_branches(pair, 1, 2, 10, 0.0) == []  # last edge too

    def test_last_edge_takes_everything_to_the_window_end(self):
        pair = [edge("a", "b", [1]), edge("b", "c", [2, 5, 11], [1.0, 2.0, 4.0])]
        assert window_branches(pair, 1, 0, 10, 3.0) == [(1, -1, 3.0)]
        # Below φ: the only prefix of the last edge is cut.
        assert window_branches(pair, 1, 0, 10, 3.5) == []

    def test_validity_skips_a_prefix_but_the_scan_continues(self):
        # Prefix [1] is invalid: 2 precedes the first later e2 element (3),
        # so 2 could join it. Prefix [1, 2] is valid and comes after it.
        pair = [edge("a", "b", [1, 2, 5]), edge("b", "c", [3, 4])]
        assert window_branches(pair, 0, 0, 10, 0.0) == [(1, 0, 2.0)]

    def test_window_exit_ends_the_scan(self):
        # After prefix [1, 3] the next e2 element (12) lies past the window
        # end 10, and so does every later one: no longer prefix is offered.
        pair = [edge("a", "b", [1, 3, 5]), edge("b", "c", [2, 12])]
        assert window_branches(pair, 0, 0, 10, 0.0) == [(0, 0, 1.0)]
        assert window_branches(pair, 0, 0, 20, 0.0) == [
            (0, 0, 1.0), (2, 1, 3.0)
        ]

    def test_phi_cut_skips_light_prefixes_only(self):
        pair = [edge("a", "b", [1, 3, 5]), edge("b", "c", [2, 4, 6])]
        every = [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]
        assert window_branches(pair, 0, 0, 10, 0.0) == every
        assert window_branches(pair, 0, 0, 10, 2.0) == every[1:]

    def test_prefix_pruning_off_emits_every_valid_assignment(self):
        pair = [edge("a", "b", [1, 3, 5]), edge("b", "c", [2, 4, 6])]
        window = Window(1, 10)
        pruned, unpruned = [], []
        enumerate_window_ranges(pair, window, 2.0, pruned.append)
        enumerate_window_ranges(
            pair, window, 2.0, unpruned.append, prefix_pruning=False
        )
        # Only the middle split gives both edge-sets a flow of at least 2;
        # without pruning every valid assignment reaches the caller.
        assert pruned == [((0, 1), (1, 2))]
        assert unpruned == [((0, 0), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (2, 2))]

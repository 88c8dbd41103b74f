"""Phase P1: structural spanning-path matching."""

from __future__ import annotations

import pytest

from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph


def graph_of(*pairs):
    """A graph with one unit interaction per given (src, dst) pair."""
    g = InteractionGraph()
    for i, (src, dst) in enumerate(pairs):
        g.add_interaction(src, dst, float(i), 1.0)
    return g


class TestChainMatching:
    def test_simple_chain(self):
        ts = graph_of(("a", "b"), ("b", "c")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert [m.walk for m in matches] == [("a", "b", "c")]

    def test_branching_counts(self):
        ts = graph_of(
            ("a", "b"), ("b", "c"), ("b", "d"), ("b", "e")
        ).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert {m.walk for m in matches} == {
            ("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e"),
        }

    def test_injectivity_blocks_revisits(self):
        # a→b→a is NOT a match of the 3-chain (v0 and v2 are distinct
        # motif vertices and must map to distinct graph vertices).
        ts = graph_of(("a", "b"), ("b", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert matches == []

    def test_two_cycle_motif_matches_back_and_forth(self):
        ts = graph_of(("a", "b"), ("b", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.cycle(2, 1))
        assert {m.walk for m in matches} == {("a", "b", "a"), ("b", "a", "b")}

    def test_deterministic_order(self):
        g = graph_of(("b", "c"), ("a", "b"), ("c", "d"))
        ts = g.to_time_series()
        first = [m.walk for m in find_structural_matches(ts, Motif.chain(3, 1))]
        second = [m.walk for m in find_structural_matches(ts, Motif.chain(3, 1))]
        assert first == second
        assert first == sorted(first, key=repr)


class TestCycleMatching:
    def test_triangle_rotations(self):
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.cycle(3, 1))
        assert {m.walk for m in matches} == {
            ("a", "b", "c", "a"), ("b", "c", "a", "b"), ("c", "a", "b", "c"),
        }

    def test_no_triangle_no_match(self):
        ts = graph_of(("a", "b"), ("b", "c"), ("a", "c")).to_time_series()
        assert find_structural_matches(ts, Motif.cycle(3, 1)) == []

    def test_cycle_closure_checks_edge_existence(self):
        # Path a→b→c→d exists, but d→a doesn't: no 4-cycle.
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "d")).to_time_series()
        assert find_structural_matches(ts, Motif.cycle(4, 1)) == []


class TestVariantMatching:
    def test_cycle_with_tail(self):
        # M(4,4)B: v0→v1→v2→v0→v3.
        motif = Motif([0, 1, 2, 0, 3], delta=1)
        ts = graph_of(
            ("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")
        ).to_time_series()
        matches = find_structural_matches(ts, motif)
        assert {m.walk for m in matches} == {("a", "b", "c", "a", "d")}

    def test_tail_into_cycle(self):
        # M(4,4)C: v0→v1→v2→v3→v1.
        motif = Motif([0, 1, 2, 3, 1], delta=1)
        ts = graph_of(
            ("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")
        ).to_time_series()
        matches = find_structural_matches(ts, motif)
        assert {m.walk for m in matches} == {("x", "a", "b", "c", "a")}

    def test_tail_vertex_must_differ_from_cycle(self):
        # Only a triangle, no distinct tail vertex available.
        motif = Motif([0, 1, 2, 0, 3], delta=1)
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "a")).to_time_series()
        assert find_structural_matches(ts, motif) == []


class TestMatchContents:
    def test_series_follow_motif_edges(self, fig2_graph):
        ts = fig2_graph.to_time_series()
        motif = Motif.cycle(3, delta=10)
        for match in find_structural_matches(ts, motif):
            for i, series in enumerate(match.series):
                msrc, mdst = motif.edge(i)
                assert series.src == match.vertex_map[msrc]
                assert series.dst == match.vertex_map[mdst]

    def test_match_equality(self):
        ts = graph_of(("a", "b"), ("b", "c")).to_time_series()
        m1, = find_structural_matches(ts, Motif.chain(3, 1))
        m2, = find_structural_matches(ts, Motif.chain(3, 1))
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_empty_graph(self):
        ts = InteractionGraph().to_time_series()
        assert find_structural_matches(ts, Motif.chain(3, 1)) == []

    def test_single_edge_motif(self):
        ts = graph_of(("a", "b"), ("c", "d")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(2, 1))
        assert {m.walk for m in matches} == {("a", "b"), ("c", "d")}


class TestNoCyclePinsViews:
    """The recursive closures of P1 and P2 are reference cycles, but none
    holds the graph once its walk is done, so a store whose views they
    walked can be closed as soon as its last user is deleted, without
    waiting for (or forcing) a cyclic garbage collection."""

    @staticmethod
    def _graph():
        import random

        rng = random.Random(4)
        graph = InteractionGraph()
        for _ in range(200):
            u, v = rng.sample(range(8), 2)
            graph.add_interaction(
                f"n{u}", f"n{v}", float(rng.randrange(60)), float(rng.randint(1, 9))
            )
        return graph

    @pytest.mark.parametrize("walk", ["find", "top_k", "matches_through"])
    def test_shared_store_closes_with_gc_disabled(self, walk):
        import gc

        from repro.core.engine import FlowMotifEngine
        from repro.core.matching import matches_through
        from repro.graph.columnar import ColumnStore

        motif = Motif.chain(3, delta=10, phi=2)
        shared = ColumnStore.from_graph(self._graph()).to_shared()
        enabled = gc.isenabled()
        gc.disable()
        try:
            view = shared.to_graph()
            if walk == "find":
                engine = FlowMotifEngine(view)
                result = engine.find_instances(motif)
                assert result.count > 0
                del engine
            elif walk == "top_k":
                engine = FlowMotifEngine(view)
                result = engine.top_k(motif, 3)
                assert result
                del engine
            else:
                anchor = view.all_series()[0]
                result, _expanded = matches_through(view, motif, anchor)
                assert result
                del anchor
            del result, view
            shared.close(unlink=True)
        finally:
            if enabled:
                gc.enable()
            gc.collect()
            shared.close(unlink=True)

"""The FlowMotifEngine facade."""

from __future__ import annotations

import gc

import pytest

from repro.core import matching
from repro.core.engine import FlowMotifEngine
from repro.core.matching import StructuralMatch, find_structural_matches
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph


class TestEngineConstruction:
    def test_accepts_interaction_graph(self, fig2_graph):
        engine = FlowMotifEngine(fig2_graph)
        assert engine.time_series_graph.num_nodes == 4

    def test_accepts_time_series_graph(self, fig2_graph):
        engine = FlowMotifEngine(fig2_graph.to_time_series())
        assert engine.time_series_graph.num_nodes == 4

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="InteractionGraph"):
            FlowMotifEngine([("a", "b", 1, 1)])


class TestSearchResult:
    def test_result_fields(self, fig2_engine, triangle):
        result = fig2_engine.find_instances(triangle)
        assert result.motif is triangle
        assert result.count == len(result.instances) == 1
        # The engine's P1 keeps only the one temporally feasible match of
        # the six structural ones (Table 4's count, Figure 6).
        assert result.num_matches == 1
        assert len(
            find_structural_matches(fig2_engine.time_series_graph, triangle)
        ) == 6
        assert result.p1_seconds >= 0.0
        assert result.p2_seconds >= 0.0
        assert result.total_seconds == result.p1_seconds + result.p2_seconds

    def test_collect_false_counts_only(self, fig7_engine, triangle_phi0):
        result = fig7_engine.find_instances(triangle_phi0, collect=False)
        assert result.instances == []
        assert result.count == 6

    def test_flows_sorted(self, fig7_engine, triangle_phi0):
        result = fig7_engine.find_instances(triangle_phi0)
        flows = result.flows()
        assert flows == sorted(flows, reverse=True)

    def test_constraint_overrides(self, fig7_engine, triangle_phi0):
        strict = fig7_engine.find_instances(triangle_phi0, phi=5)
        assert strict.count == 1
        loose = fig7_engine.find_instances(triangle_phi0, delta=1)
        assert loose.count == 0


class TestMatchCache:
    def test_cache_returns_equal_matches(self, fig2_engine, triangle):
        first = fig2_engine.structural_matches(triangle)
        second = fig2_engine.structural_matches(triangle)
        assert first == second

    def test_cache_shared_across_constraints(self, fig2_graph):
        engine = FlowMotifEngine(fig2_graph)
        a = Motif.cycle(3, delta=10, phi=7)
        b = Motif.cycle(3, delta=99, phi=0)
        engine.structural_matches(a)
        matches = engine.structural_matches(b)
        # Served from the shape cache, but rebound to motif b.
        assert all(m.motif is b for m in matches)
        assert len(matches) == 1

    def test_cache_can_be_cleared(self, fig2_engine, triangle):
        fig2_engine.structural_matches(triangle)
        fig2_engine.clear_cache()
        assert fig2_engine.structural_matches(triangle)

    def test_rebuild_at_a_lower_phi_drops_the_old_list_first(
        self, monkeypatch
    ):
        """One P1 list per shape is alive: a query at a lower φ drops the
        cached list before building its own, and a higher φ reads it."""
        graph = InteractionGraph.from_tuples(
            [("a", "b", t, 1.0 + t % 5) for t in range(0, 40, 2)]
            + [("b", "c", t, 1.0 + t % 3) for t in range(1, 40, 2)]
            + [("c", "a", t, 2.0) for t in range(3, 40, 4)]
        )
        motif = Motif.chain(3, delta=10, phi=30)
        engine = FlowMotifEngine(graph)

        def live():
            gc.collect()
            return sum(
                isinstance(o, StructuralMatch) and o.motif is motif
                for o in gc.get_objects()
            )

        real = matching.iter_structural_matches
        at_build = []

        def spy(*args, **kwargs):
            at_build.append(live())
            return real(*args, **kwargs)

        monkeypatch.setattr(matching, "iter_structural_matches", spy)
        high = engine.find_instances(motif).num_matches
        low = engine.count_instances(motif, phi=1.0).num_matches
        assert engine.find_instances(motif).num_matches == low > high > 0
        assert at_build == [0, 0]
        assert live() == low

    def test_count_matches_find(self, fig7_engine, triangle_phi0):
        count = fig7_engine.count_instances(triangle_phi0)
        find = fig7_engine.find_instances(triangle_phi0)
        assert count.count == find.count
        assert count.num_matches == find.num_matches


class TestEngineVariants:
    def test_top_k(self, fig7_engine, triangle_phi0):
        top2 = fig7_engine.top_k(triangle_phi0, 2)
        assert [i.flow for i in top2] == [5.0, 4.0]

    def test_top_one_dp(self, fig7_engine, triangle_phi0):
        best = fig7_engine.top_one_dp(triangle_phi0)
        assert best.flow == 5.0

    def test_empty_graph_searches(self):
        engine = FlowMotifEngine(InteractionGraph())
        motif = Motif.chain(3, delta=10)
        assert engine.find_instances(motif).count == 0
        assert engine.count_instances(motif).count == 0
        assert engine.top_k(motif, 3) == []
        assert engine.top_one_dp(motif).flow == 0.0

"""The engine's temporally pruned P1 and the match-feasibility prechecks."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances, match_is_feasible
from repro.core.matching import find_structural_matches, iter_structural_matches
from repro.core.motif import Motif, paper_motifs
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries


def random_graph(seed, nodes=7, events=60, horizon=60):
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        g.add_interaction(src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5))
    return g


class TestMatchIsFeasible:
    def series(self, times, flows=None):
        flows = flows or [1.0] * len(times)
        return EdgeSeries("u", "v", times, flows)

    def test_ordered_chain_feasible(self):
        series = [self.series([1, 5]), self.series([3, 7]), self.series([4, 9])]
        assert match_is_feasible(series, phi=0)

    def test_temporal_dead_end(self):
        # Second edge's events all precede the first edge's earliest.
        series = [self.series([10]), self.series([1, 2, 3])]
        assert not match_is_feasible(series, phi=0)

    def test_tie_blocks_chain(self):
        series = [self.series([5]), self.series([5])]
        assert not match_is_feasible(series, phi=0)

    def test_flow_infeasible(self):
        series = [self.series([1], [2.0]), self.series([2], [0.5])]
        assert not match_is_feasible(series, phi=1.0)
        assert match_is_feasible(series, phi=0.4)


class TestPrunedMatching:
    @pytest.mark.parametrize("seed", range(5))
    def test_pruned_is_feasible_subset(self, seed):
        g = random_graph(seed)
        ts = g.to_time_series()
        motif = Motif.chain(4, delta=15, phi=2)
        full = set()
        for m in find_structural_matches(ts, motif):
            full.add(m.vertex_map)
        pruned = list(
            iter_structural_matches(ts, motif, phi=2, temporal_pruning=True)
        )
        assert {m.vertex_map for m in pruned} <= full
        for m in pruned:
            assert match_is_feasible(m.series, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_pruning_keeps_all_instance_bearing_matches(self, seed):
        from repro.core.enumeration import find_instances_in_match

        g = random_graph(seed)
        ts = g.to_time_series()
        motif = Motif.chain(3, delta=12, phi=1)
        pruned_maps = {
            m.vertex_map
            for m in iter_structural_matches(
                ts, motif, phi=1, temporal_pruning=True
            )
        }
        for match in find_structural_matches(ts, motif):
            if find_instances_in_match(match):
                assert match.vertex_map in pruned_maps


class TestEngineMatchSet:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)", "M(4,4)B"])
    def test_cached_set_is_pure_subset_keeping_instance_bearing_matches(
        self, seed, name
    ):
        g = random_graph(seed)
        motif = paper_motifs(delta=12, phi=0)[name]
        engine = FlowMotifEngine(g)
        cached = engine.structural_matches(motif)
        pure = find_structural_matches(engine.time_series_graph, motif)
        assert set(cached) <= set(pure)
        assert len(cached) == len(set(cached))
        for match in pure:
            if find_instances([match], phi=0.0):
                assert match in cached


class TestFusedEngineMode:
    """The engine's cached, temporally pruned P1 feeding P2 (what the
    removed fused mode ran) against the reference: P2 over the pure
    :func:`find_structural_matches` set."""

    @staticmethod
    def reference(graph, motif, **overrides):
        ts = FlowMotifEngine(graph).time_series_graph
        return find_instances(find_structural_matches(ts, motif), **overrides)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_equals_cached(self, seed):
        g = random_graph(seed)
        motif = Motif.chain(3, delta=12, phi=2)
        found = FlowMotifEngine(g).find_instances(motif)
        assert {i.canonical_key() for i in found.instances} == {
            i.canonical_key() for i in self.reference(g, motif)
        }

    def test_fused_catalog_on_fixture(self, fig2_graph):
        engine = FlowMotifEngine(fig2_graph)
        for name, motif in paper_motifs(delta=10, phi=5).items():
            found = engine.find_instances(motif)
            assert found.count == len(self.reference(fig2_graph, motif)), name

    def test_fused_reports_fewer_matches(self):
        g = random_graph(11, nodes=8, events=50)
        motif = Motif.chain(4, delta=5, phi=3)
        found = FlowMotifEngine(g).find_instances(motif)
        pure = find_structural_matches(g.to_time_series(), motif)
        assert found.num_matches <= len(pure)
        assert found.count == len(self.reference(g, motif))

    def test_fused_with_overrides(self, fig7_graph):
        engine = FlowMotifEngine(fig7_graph)
        motif = Motif.cycle(3, delta=999, phi=99)
        found = engine.find_instances(motif, delta=10, phi=5)
        assert found.count == 1
        assert found.count == len(
            self.reference(fig7_graph, motif, delta=10, phi=5)
        )

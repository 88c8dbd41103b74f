"""DAG motifs with forks and joins (the Section 7 generalization)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.join import join_find_instances
from repro.core.dag import GeneralMotif
from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances
from repro.core.instance import is_valid_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.streaming import StreamingDetector
from repro.graph.interaction import InteractionGraph


def find_dag(graph, motif):
    """Every maximal instance, through the engine every motif uses."""
    return FlowMotifEngine(graph).find_instances(motif).instances


def random_graph(seed, nodes=6, events=50, horizon=50):
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        g.add_interaction(src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5))
    return g


class TestGeneralMotifModel:
    def test_normalization(self):
        m = GeneralMotif([("u", "v"), ("u", "w")], delta=5)
        assert m.edges == ((0, 1), (0, 2))
        assert m.num_vertices == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GeneralMotif([], delta=5)

    def test_interface_compatible_with_motif(self):
        m = GeneralMotif([("a", "b"), ("b", "c")], delta=5, phi=1)
        assert isinstance(m, Motif)
        assert m.edge(0) == (0, 1)
        assert m.num_edges == 2
        assert m.delta == 5 and m.phi == 1
        assert m.spanning_path is None
        assert m.display_name == "G(3,2)"

    def test_same_edges_same_shape_as_path_motif(self):
        dag = GeneralMotif([(0, 1), (1, 2)], delta=5, phi=1)
        assert dag == Motif.chain(3, delta=5, phi=1)
        assert hash(dag) == hash(Motif.chain(3, delta=5, phi=1))

    def test_with_constraints_keeps_the_class(self):
        m = GeneralMotif([("u", "v"), ("u", "w")], delta=5, name="fork")
        relaxed = m.with_constraints(phi=2)
        assert isinstance(relaxed, GeneralMotif)
        assert relaxed.edges == m.edges and relaxed.name == "fork"
        assert (relaxed.delta, relaxed.phi) == (5, 2)
        assert relaxed.spanning_path is None

    def test_path_only_code_rejects_it(self):
        m = GeneralMotif([("u", "v"), ("u", "w")], delta=5)
        ts = InteractionGraph.from_tuples([("a", "b", 1, 1.0)]).to_time_series()
        with pytest.raises(TypeError):
            StreamingDetector(m)
        with pytest.raises(TypeError):
            join_find_instances(ts, m)


class TestDagMatching:
    def test_fork_join_match(self):
        g = InteractionGraph.from_tuples(
            [
                ("u", "v", 1, 1.0),
                ("u", "w", 2, 1.0),
                ("v", "x", 3, 1.0),
                ("w", "x", 4, 1.0),
            ]
        )
        motif = GeneralMotif(
            [("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")], delta=10
        )
        matches = find_structural_matches(g.to_time_series(), motif)
        vertex_maps = {m.vertex_map for m in matches}
        assert ("u", "v", "w", "x") in vertex_maps
        # The symmetric relabeling (v ↔ w) is also a distinct match.
        assert ("u", "w", "v", "x") in vertex_maps
        assert len(matches) == 2

    def test_injectivity(self):
        g = InteractionGraph.from_tuples(
            [("a", "b", 1, 1.0), ("b", "a", 2, 1.0)]
        )
        # Fork u→v, u→w requires two distinct targets.
        motif = GeneralMotif([("u", "v"), ("u", "w")], delta=10)
        assert find_structural_matches(g.to_time_series(), motif) == []

    def test_path_motifs_match_dfs_matcher(self):
        g = random_graph(5)
        ts = g.to_time_series()
        path_motif = Motif.cycle(3, delta=10)
        dag_motif = GeneralMotif([(0, 1), (1, 2), (2, 0)], delta=10)
        path_maps = {
            m.vertex_map for m in find_structural_matches(ts, path_motif)
        }
        dag_maps = {
            m.vertex_map for m in find_structural_matches(ts, dag_motif)
        }
        assert path_maps == dag_maps

    def test_match_repr_prints_the_vertex_map(self):
        g = InteractionGraph.from_tuples(
            [("u", "v", 1, 1.0), ("u", "w", 2, 1.0)]
        )
        motif = GeneralMotif([("u", "v"), ("u", "w")], delta=10)
        match = find_structural_matches(g.to_time_series(), motif)[0]
        assert repr(match) == "StructuralMatch(G(3,2), ('u', 'v', 'w'))"
        with pytest.raises(TypeError):
            match.walk

    def test_disconnected_in_label_order(self):
        """Edge 2 has neither endpoint bound when P1 reaches it, so its
        series comes from every series of the graph."""
        g = InteractionGraph.from_tuples(
            [("a", "b", 1, 1.0), ("c", "d", 2, 1.0), ("b", "c", 3, 1.0)]
        )
        motif = GeneralMotif([(0, 1), (2, 3), (1, 2)], delta=10)
        matches = find_structural_matches(g.to_time_series(), motif)
        assert [m.vertex_map for m in matches] == [("a", "b", "c", "d")]


class TestDagEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_path_shaped_dag_equals_path_engine(self, seed):
        """On path-shaped motifs the DAG engine must reproduce the paper
        engine exactly (same instances, same flows)."""
        g = random_graph(seed)
        ts = g.to_time_series()
        path_motif = Motif.chain(3, delta=12, phi=1)
        dag_motif = GeneralMotif([(0, 1), (1, 2)], delta=12, phi=1)
        path_matches = find_structural_matches(ts, path_motif)
        expected = {
            (i.vertex_map, tuple(tuple(sorted(r.items())) for r in i.runs))
            for i in find_instances(path_matches)
        }
        actual = {
            (i.vertex_map, tuple(tuple(sorted(r.items())) for r in i.runs))
            for i in find_dag(ts, dag_motif)
        }
        assert actual == expected

    def test_leading_self_loop_equals_path_engine(self):
        ts = InteractionGraph.from_tuples(
            [("a", "a", 1, 2.0), ("a", "b", 2, 3.0)]
        ).to_time_series()
        path = FlowMotifEngine(ts).find_instances(Motif([0, 0, 1], delta=5))
        assert path.count == 1
        dag = find_dag(ts, GeneralMotif([(0, 0), (0, 1)], delta=5))
        assert [i.canonical_key() for i in dag] == [
            i.canonical_key() for i in path.instances
        ]

    def test_fork_join_instance(self):
        g = InteractionGraph.from_tuples(
            [
                ("u", "v", 1, 5.0),
                ("u", "w", 2, 4.0),
                ("v", "x", 3, 5.0),
                ("w", "x", 4, 4.0),
            ]
        )
        ts = g.to_time_series()
        motif = GeneralMotif(
            [("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")], delta=10, phi=3
        )
        instances = find_dag(ts, motif)
        mine = [i for i in instances if i.vertex_map == ("u", "v", "w", "x")]
        assert len(mine) == 1
        inst = mine[0]
        assert inst.flow == 4.0
        ok, reason = is_valid_instance(inst, ts)
        assert ok, reason

    def test_total_order_is_enforced(self):
        """Fork edges must still respect the global label order: if the
        second fork edge fires before the first, there is no instance."""
        g = InteractionGraph.from_tuples(
            [
                ("u", "v", 2, 5.0),
                ("u", "w", 1, 4.0),  # before the (u, v) event → invalid
                ("v", "x", 3, 5.0),
                ("w", "x", 4, 4.0),
            ]
        )
        motif = GeneralMotif(
            [("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")], delta=10
        )
        instances = find_dag(g, motif)
        assert all(i.vertex_map != ("u", "v", "w", "x") for i in instances)

    def test_phi_applies_per_edge(self):
        g = InteractionGraph.from_tuples(
            [
                ("u", "v", 1, 5.0),
                ("u", "w", 2, 1.0),
                ("v", "x", 3, 5.0),
                ("w", "x", 4, 5.0),
            ]
        )
        motif = GeneralMotif(
            [("u", "v"), ("u", "w"), ("v", "x"), ("w", "x")], delta=10, phi=3
        )
        instances = find_dag(g, motif)
        assert all(i.vertex_map != ("u", "v", "w", "x") for i in instances)

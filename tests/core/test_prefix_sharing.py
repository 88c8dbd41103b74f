"""Enumeration, counting and top-k share one ``FindInstances`` prefix step
(:func:`repro.core.enumeration.window_branches`); on every fixture the
three consumers of that shared step must agree with plain enumeration.

* counting: ``count_instances == len(find_instances)``;
* top-k: the top-k flows equal the sorted prefix of the enumeration flows
  at φ = 0.
"""

from __future__ import annotations

import random

import pytest

from repro.core.counting import count_instances
from repro.core.enumeration import find_instances
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif, paper_motifs
from repro.core.topk import top_k_instances
from repro.graph.interaction import InteractionGraph


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


def assert_consumers_agree(matches, delta=None, phi=None, k=5):
    found = find_instances(matches, delta=delta, phi=phi)
    assert count_instances(matches, delta=delta, phi=phi) == len(found)
    flows = sorted(
        (i.flow for i in find_instances(matches, delta=delta, phi=0.0)),
        reverse=True,
    )
    top = top_k_instances(matches, k, delta=delta)
    assert [i.flow for i in top] == flows[:k]
    return found


class TestSharedEqualsPlain:
    @pytest.mark.parametrize("seed", range(6))
    def test_chain(self, seed):
        g = random_graph(seed)
        motif = Motif.chain(3, delta=15, phi=1)
        assert_consumers_agree(find_structural_matches(g.to_time_series(), motif))

    @pytest.mark.parametrize("seed", range(6))
    def test_cycle(self, seed):
        g = random_graph(seed, nodes=5)
        motif = Motif.cycle(3, delta=15, phi=0)
        assert_consumers_agree(find_structural_matches(g.to_time_series(), motif))

    def test_figure7(self, fig7_graph):
        motif = Motif.cycle(3, delta=10, phi=0)
        matches = find_structural_matches(fig7_graph.to_time_series(), motif)
        assert len(assert_consumers_agree(matches, k=10)) == 6

    def test_full_catalog(self):
        g = random_graph(123, nodes=8, events=80)
        ts = g.to_time_series()
        for motif in paper_motifs(delta=12, phi=1).values():
            assert_consumers_agree(find_structural_matches(ts, motif))

    def test_empty_matches(self):
        assert find_instances([]) == []
        assert count_instances([]) == 0
        assert top_k_instances([], 3) == []

    def test_streaming_callback(self, fig7_graph):
        motif = Motif.cycle(3, delta=10, phi=0)
        matches = find_structural_matches(fig7_graph.to_time_series(), motif)
        seen = []
        returned = find_instances(matches, on_instance=seen.append)
        assert returned == []
        assert len(seen) == 6 == count_instances(matches)
        assert [i.flow for i in top_k_instances(matches, 6)] == sorted(
            (i.flow for i in seen), reverse=True
        )

    def test_constraint_overrides(self, fig7_graph):
        motif = Motif.cycle(3, delta=999, phi=99)
        matches = find_structural_matches(fig7_graph.to_time_series(), motif)
        assert assert_consumers_agree(matches, delta=10, phi=5)

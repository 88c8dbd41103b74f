"""Figure 8 — the two-phase algorithm vs the join baseline.

The paper's headline comparison: the two-phase algorithm is roughly twice
as fast because the join materializes sub-motif instances that never
become complete instances. Both algorithms are benchmarked end-to-end
(P1 + P2 for two-phase; tuple building + joins + maximality filter for the
baseline) and their result counts are asserted equal.
"""

from __future__ import annotations

import pytest

from repro.baselines.join import join_find_instances
from repro.core.engine import FlowMotifEngine
from repro.core.motif import paper_motifs

FIG8_MOTIFS = ["M(3,2)", "M(3,3)", "M(4,4)A"]


def _two_phase(graph, motif):
    engine = FlowMotifEngine(graph)  # fresh: include P1 like the paper
    return engine.find_instances(motif, collect=False).count


def _join(graph, motif):
    return len(join_find_instances(graph.to_time_series(), motif))


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook", "Passenger"])
@pytest.mark.parametrize("motif_name", FIG8_MOTIFS)
def test_two_phase(benchmark, datasets, dataset, motif_name):
    graph, delta, phi = datasets[dataset]
    motif = paper_motifs(delta, phi)[motif_name]
    count = benchmark(_two_phase, graph, motif)
    assert count >= 0


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook", "Passenger"])
@pytest.mark.parametrize("motif_name", FIG8_MOTIFS)
def test_join_baseline(benchmark, datasets, dataset, motif_name):
    graph, delta, phi = datasets[dataset]
    motif = paper_motifs(delta, phi)[motif_name]
    count = benchmark(_join, graph, motif)
    # The baseline must agree with the two-phase algorithm exactly.
    assert count == _two_phase(graph, motif)

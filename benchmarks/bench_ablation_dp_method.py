"""Ablation — the paper's O(τ²) DP recurrence vs the fused O(τ) pass.

Both evaluate Equation 2 exactly (asserted). ``fused`` exploits the
monotonicity of the two min() arguments in the split point and of the
crossing index in the window endpoint, so one amortized O(τ) two-pointer
sweep per layer replaces the inner maximization. The gap widens with
event density per window, so Passenger (densest series) benefits most;
see ``benchmarks/bench_columnar_store.py`` for the kernel-only
comparison.
"""

from __future__ import annotations

import pytest

from repro.core.dp import top_one_instance
from repro.core.motif import paper_motifs


@pytest.mark.parametrize("dataset", ["Bitcoin", "Facebook", "Passenger"])
@pytest.mark.parametrize("method", ["quadratic", "fused"])
def test_dp_method(benchmark, engines, datasets, dataset, method):
    _, delta, phi = datasets[dataset]
    engine = engines[dataset]
    motif = paper_motifs(delta, 0.0)["M(3,2)"]
    matches = engine.structural_matches(motif)
    best = benchmark(top_one_instance, matches, delta, method, False)
    other = "fused" if method == "quadratic" else "quadratic"
    reference = top_one_instance(matches, delta, other, False)
    assert best.flow == pytest.approx(reference.flow)

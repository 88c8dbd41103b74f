"""Ablation study — the design choices Section 4/5/7 call out, quantified.

Not a paper figure, but DESIGN.md commits to benchmarking the paper's
design claims directly:

* φ-prefix pruning (line 16 of Algorithm 1) on vs off;
* the window skip rule on vs off (off also emits non-maximal duplicates,
  counted here);
* memoized counting vs full enumeration (Section 7 future work);
* the paper's O(τ²) DP recurrence vs the amortized O(τ) fused pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.dp import top_one_instance
from repro.experiments.common import build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
) -> dict:
    motif_names = list(motifs) if motifs is not None else ["M(3,2)", "M(3,3)"]
    tables = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        rows = []
        for name, motif in bundle.motifs(motif_names).items():
            engine = bundle.engine
            matches = engine.structural_matches(motif)

            with span("experiment.baseline") as baseline_t:
                baseline = engine.find_instances(motif, collect=False)
            with span("experiment.no_pruning") as no_pruning_t:
                engine.find_instances(
                    motif, collect=False, prefix_pruning=False
                )
            with span("experiment.no_skip") as no_skip_t:
                no_skip = engine.find_instances(
                    motif, collect=False, skip_rule=False
                )
            with span("experiment.counting") as counting_t:
                counted = engine.count_instances(motif)
            with span("experiment.dp_quadratic") as dp_quad_t:
                quad = top_one_instance(
                    matches, delta=bundle.delta, method="quadratic",
                    reconstruct=False,
                )
            with span("experiment.dp_fused") as dp_fused_t:
                fused = top_one_instance(
                    matches, delta=bundle.delta, method="fused",
                    reconstruct=False,
                )
            assert counted.count == baseline.count
            assert abs(quad.flow - fused.flow) < 1e-9
            rows.append(
                [
                    name,
                    baseline.count,
                    round(baseline.p2_seconds, 4),
                    round(no_pruning_t.elapsed, 4),
                    round(no_skip_t.elapsed, 4),
                    no_skip.count - baseline.count,
                    round(counting_t.elapsed, 4),
                    round(dp_quad_t.elapsed, 4),
                    round(dp_fused_t.elapsed, 4),
                ]
            )
        tables.append(
            {
                "title": (
                    f"{bundle.name} (delta={bundle.delta:g}, "
                    f"phi={bundle.phi:g})"
                ),
                "headers": [
                    "Motif",
                    "#inst",
                    "P2 (s)",
                    "no-pruning (s)",
                    "no-skip (s)",
                    "extra non-max",
                    "count-only (s)",
                    "DP quad (s)",
                    "DP fused (s)",
                ],
                "rows": rows,
            }
        )
    return {
        "name": "ablations",
        "title": "Ablations — pruning, skip rule, counting, DP method",
        "params": {"scale": scale, "seed": seed},
        "tables": tables,
    }

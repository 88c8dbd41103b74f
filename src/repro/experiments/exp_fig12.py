"""Figure 12 — phase-2 time of generic top-k (k=1) vs the DP module.

Expected shape (paper §6.2.3): the DP module cuts phase-2 time by roughly
20–40 %, most on the Passenger network. Phase 1 is shared (the structural
matches are computed once and reused), so only phase 2 is timed — as in
the paper's bar charts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.dp import top_one_instance
from repro.core.topk import top_k_instances
from repro.experiments.common import build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
    dp_method: str = "auto",
) -> dict:
    tables = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        rows = []
        for name, motif in bundle.motifs(motifs).items():
            matches = bundle.engine.structural_matches(motif)
            with span("experiment.top_k") as topk_timer:
                top = top_k_instances(matches, 1, delta=bundle.delta)
            with span("experiment.dp") as dp_timer:
                dp_best = top_one_instance(
                    matches, delta=bundle.delta, method=dp_method, reconstruct=False
                )
            top_flow = top[0].flow if top else 0.0
            if abs(top_flow - dp_best.flow) > 1e-9:
                raise AssertionError(
                    f"{bundle.name}/{name}: top-k(k=1) flow {top_flow} != "
                    f"DP flow {dp_best.flow}"
                )
            reduction = (
                (topk_timer.elapsed - dp_timer.elapsed) / topk_timer.elapsed
                if topk_timer.elapsed > 0
                else 0.0
            )
            rows.append(
                [
                    name,
                    round(top_flow, 3),
                    round(topk_timer.elapsed, 4),
                    round(dp_timer.elapsed, 4),
                    f"{100 * reduction:.1f}%",
                ]
            )
        tables.append(
            {
                "title": f"{bundle.name} (delta={bundle.delta:g})",
                "headers": [
                    "Motif",
                    "top-1 flow",
                    "top-k k=1 (s)",
                    "DP (s)",
                    "time saved",
                ],
                "rows": rows,
            }
        )
    return {
        "name": "fig12",
        "title": "Figure 12 — efficiency of the dynamic programming module (phase 2)",
        "params": {"scale": scale, "seed": seed, "dp_method": dp_method},
        "tables": tables,
    }

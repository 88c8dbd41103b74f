"""Figure 10 — number of instances and runtime for varying φ (δ fixed).

Expected shape (paper §6.2.2): counts and runtime drop as φ grows, because
partial instances violating φ are pruned early.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import PHI_GRIDS, build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
    phis: Optional[Sequence[float]] = None,
) -> dict:
    series = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        grid = list(phis) if phis is not None else PHI_GRIDS[bundle.name]
        catalog = bundle.motifs(motifs)
        counts = {name: [] for name in catalog}
        times = {name: [] for name in catalog}
        for name, motif in catalog.items():
            bundle.engine.structural_matches(motif)  # warm the P1 cache
            for phi in grid:
                with span("experiment.find") as timer:
                    result = bundle.engine.find_instances(
                        motif, phi=phi, collect=False
                    )
                counts[name].append(result.count)
                times[name].append(round(timer.elapsed, 4))
        series.append(
            {
                "title": f"{bundle.name}: #instances vs phi (delta={bundle.delta:g})",
                "x_label": "phi",
                "x": grid,
                "lines": counts,
            }
        )
        series.append(
            {
                "title": f"{bundle.name}: time (s) vs phi (delta={bundle.delta:g})",
                "x_label": "phi",
                "x": grid,
                "lines": times,
            }
        )
    return {
        "name": "fig10",
        "title": "Figure 10 — #instances and time for different values of phi",
        "params": {"scale": scale, "seed": seed},
        "series": series,
    }

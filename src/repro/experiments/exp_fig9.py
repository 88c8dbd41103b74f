"""Figure 9 — number of instances and runtime for varying δ (φ fixed).

Expected shape (paper §6.2.2): both counts and runtime grow with δ, with
runtime growing at a slower pace; simple motifs have more instances and
cost less than complex ones; cyclic motifs keep up with acyclic ones on
Bitcoin/Facebook but lag on Passenger.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.experiments.common import DELTA_GRIDS, build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
    deltas: Optional[Sequence[float]] = None,
) -> dict:
    series = []
    with obs.observe(trace=False) as observation:
        for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
            grid = list(deltas) if deltas is not None else DELTA_GRIDS[bundle.name]
            catalog = bundle.motifs(motifs)
            counts = {name: [] for name in catalog}
            times = {name: [] for name in catalog}
            for name, motif in catalog.items():
                bundle.engine.structural_matches(motif)  # warm the P1 cache
                for delta in grid:
                    with span("experiment.find") as timer:
                        result = bundle.engine.find_instances(
                            motif, delta=delta, collect=False
                        )
                    counts[name].append(result.count)
                    times[name].append(round(timer.elapsed, 4))
            series.append(
                {
                    "title": f"{bundle.name}: #instances vs delta (phi={bundle.phi:g})",
                    "x_label": "delta",
                    "x": grid,
                    "lines": counts,
                }
            )
            series.append(
                {
                    "title": f"{bundle.name}: time (s) vs delta (phi={bundle.phi:g})",
                    "x_label": "delta",
                    "x": grid,
                    "lines": times,
                }
            )
    return {
        "name": "fig9",
        "title": "Figure 9 — #instances and time for different values of delta",
        "params": {"scale": scale, "seed": seed},
        "series": series,
        "metrics": observation.snapshot(),
    }

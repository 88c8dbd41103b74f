"""Figure 8 — the two-phase algorithm vs the join-algorithm baseline.

Both methods search every Figure 3 motif at the dataset's default δ/φ; the
result counts are asserted equal (the join baseline is exact) and the
runtimes are reported side by side. The paper's expected shape: two-phase
roughly twice as fast, because the join materializes sub-motif instances
that never become full instances.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.join import join_find_instances
from repro.experiments.common import build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
) -> dict:
    tables = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        rows = []
        ts_graph = bundle.engine.time_series_graph
        for name, motif in bundle.motifs(motifs).items():
            with span("experiment.two_phase") as two_phase_timer:
                result = bundle.engine.find_instances(motif, collect=False)
            with span("experiment.join") as join_timer:
                join_result = join_find_instances(ts_graph, motif)
            if len(join_result) != result.count:
                raise AssertionError(
                    f"{bundle.name}/{name}: join found {len(join_result)} "
                    f"instances, two-phase {result.count}"
                )
            speedup = (
                join_timer.elapsed / two_phase_timer.elapsed
                if two_phase_timer.elapsed > 0
                else float("inf")
            )
            rows.append(
                [
                    name,
                    result.count,
                    round(two_phase_timer.elapsed, 4),
                    round(join_timer.elapsed, 4),
                    round(speedup, 2),
                ]
            )
        tables.append(
            {
                "title": f"{bundle.name} (delta={bundle.delta:g}, phi={bundle.phi:g})",
                "headers": [
                    "Motif",
                    "#instances",
                    "two-phase (s)",
                    "join (s)",
                    "join/two-phase",
                ],
                "rows": rows,
            }
        )
    return {
        "name": "fig8",
        "title": "Figure 8 — two-phase algorithm vs join algorithm",
        "params": {"scale": scale, "seed": seed},
        "tables": tables,
    }

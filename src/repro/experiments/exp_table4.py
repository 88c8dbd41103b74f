"""Table 4 — number of structural matches and phase-1 runtime per motif."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.matching import find_structural_matches
from repro.experiments.common import build_datasets
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
) -> dict:
    """Measure phase P1 alone (independent of δ and φ) for every motif."""
    tables = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        match_row: list = ["Matches"]
        time_row: list = ["Time (sec)"]
        names = []
        for name, motif in bundle.motifs(motifs).items():
            names.append(name)
            with span("experiment.p1") as timer:
                matches = find_structural_matches(bundle.engine.time_series_graph, motif)
            match_row.append(len(matches))
            time_row.append(round(timer.elapsed, 4))
        tables.append(
            {
                "title": bundle.name,
                "headers": ["Motif"] + names,
                "rows": [match_row, time_row],
            }
        )
    return {
        "name": "table4",
        "title": "Table 4 — structural matches and phase-P1 runtime",
        "params": {"scale": scale, "seed": seed},
        "tables": tables,
    }

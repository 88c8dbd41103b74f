"""Figure 13 — scalability over growing time-prefix samples.

B1..B5 / F1..F5 / T1..T4 are prefixes of the covered time period of each
dataset (§6.2.4). Expected shape: runtime grows with the sample size at a
slower pace than the number of instances.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import FlowMotifEngine
from repro.experiments.common import PREFIX_SAMPLES, build_datasets
from repro.graph.transform import time_prefix
from repro.obs.tracing import span


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
) -> dict:
    series = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        samples = PREFIX_SAMPLES[bundle.name]
        sample_names = [name for name, _ in samples]
        catalog = bundle.motifs(motifs)
        counts = {name: [] for name in catalog}
        times = {name: [] for name in catalog}
        sizes = {"#edges": []}
        for _, fraction in samples:
            subgraph = (
                bundle.graph
                if fraction >= 1.0
                else time_prefix(bundle.graph, fraction)
            )
            sizes["#edges"].append(subgraph.num_edges)
            engine = FlowMotifEngine(subgraph)
            for name, motif in catalog.items():
                with span("experiment.find") as timer:
                    result = engine.find_instances(motif, collect=False)
                counts[name].append(result.count)
                times[name].append(round(timer.elapsed, 4))
        series.append(
            {
                "title": f"{bundle.name}: sample sizes",
                "x_label": "sample",
                "x": sample_names,
                "lines": sizes,
            }
        )
        series.append(
            {
                "title": (
                    f"{bundle.name}: #instances per sample "
                    f"(delta={bundle.delta:g}, phi={bundle.phi:g})"
                ),
                "x_label": "sample",
                "x": sample_names,
                "lines": counts,
            }
        )
        series.append(
            {
                "title": f"{bundle.name}: time (s) per sample",
                "x_label": "sample",
                "x": sample_names,
                "lines": times,
            }
        )
    return {
        "name": "fig13",
        "title": "Figure 13 — scalability to the input graph size",
        "params": {"scale": scale, "seed": seed},
        "series": series,
    }

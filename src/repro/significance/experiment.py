"""The Figure 14 significance experiment as a reusable routine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.counting import count_instances
from repro.core.engine import FlowMotifEngine
from repro.core.matching import StructuralMatch
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import TimeSeriesGraph
from repro.significance.randomization import permutation_ensemble
from repro.significance.zscore import SignificanceSummary, summarize_significance


@dataclass(frozen=True)
class MotifSignificance:
    """Counts and significance of one motif on one dataset."""

    motif_name: str
    real_count: int
    random_counts: List[int]
    summary: SignificanceSummary


def _transplant_matches(
    matches: Sequence[StructuralMatch], graph: TimeSeriesGraph
) -> List[StructuralMatch]:
    """Rebind structural matches onto a structurally identical graph.

    Flow permutation keeps vertices, edges and timestamps, so the matches
    of the real graph are exactly the matches of every randomized graph —
    the engine's temporal pruning reads only timestamps — and only the
    per-pair series objects (with their shuffled flows) change.
    Re-running phase P1 per permutation would redo identical work; instead
    each match's series tuple is looked up in the permuted graph.
    """
    transplanted = []
    for match in matches:
        series = tuple(
            graph.series(s.src, s.dst) for s in match.series
        )
        if any(s is None for s in series):
            raise ValueError(
                "randomized graph is not structurally identical to the "
                "original (missing series); cannot transplant matches"
            )
        transplanted.append(
            StructuralMatch(match.motif, match.vertex_map, series)  # type: ignore[arg-type]
        )
    return transplanted


def motif_significance(
    graph: InteractionGraph,
    motifs: Dict[str, Motif],
    num_random: int = 20,
    seed: Optional[int] = 0,
    delta: Optional[float] = None,
    phi: Optional[float] = None,
) -> List[MotifSignificance]:
    """Run the Section 6.3 protocol for several motifs on one dataset.

    For each of ``num_random`` flow permutations, all motifs are counted on
    the same randomized graph (as in the paper, one ensemble serves every
    motif). Counting uses the memoized no-construction counter and reuses
    the real graph's structural matches (valid because permutation
    preserves structure — see :func:`_transplant_matches`).

    Returns one :class:`MotifSignificance` per motif, in input order.
    """
    engine = FlowMotifEngine(graph)
    matches = {
        name: engine.structural_matches(motif) for name, motif in motifs.items()
    }
    real_counts = {
        name: count_instances(matches[name], delta=delta, phi=phi)
        for name in motifs
    }

    random_counts: Dict[str, List[int]] = {name: [] for name in motifs}
    for random_graph in permutation_ensemble(graph, count=num_random, seed=seed):
        ts = random_graph.to_time_series()
        for name in motifs:
            random_counts[name].append(
                count_instances(
                    _transplant_matches(matches[name], ts),
                    delta=delta,
                    phi=phi,
                )
            )

    return [
        MotifSignificance(
            motif_name=name,
            real_count=real_counts[name],
            random_counts=random_counts[name],
            summary=summarize_significance(
                real_counts[name], random_counts[name]
            ),
        )
        for name in motifs
    ]

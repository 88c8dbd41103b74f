"""Counting motif instances without constructing them (Section 7 future work).

The paper suggests "counting instances of (possibly multiple) motifs without
constructing them (along the direction of [14])" as future work. This module
implements it for a single motif: the ``FindInstances`` recursion explores a
DAG of states ``(edge index, first usable series index)``, and the
completions from a state do not depend on how the state was reached. A
per-window memo over those states, which runs the one branch step
:func:`repro.core.enumeration.window_branches` once per reachable state and
carries how many prefix chains reach it, turns the potentially exponential
enumeration into a polynomial count.

The count always equals ``len(find_instances(...))`` (property-tested); the
benchmark ``bench_ablation_counting`` measures the speed-up.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

from repro.core.enumeration import below_phi, window_branches
from repro.core.matching import StructuralMatch
from repro.core.windows import Window, iter_maximal_windows
from repro.graph.timeseries import EdgeSeries


def count_window_instances(
    series_list: Sequence[EdgeSeries],
    window: Window,
    phi: float,
) -> int:
    """Number of maximal instances inside one window.

    A layered memo over the states ``(i, start)``: ``ways[start]`` is the
    number of valid prefix chains that leave edge ``i`` to start at index
    ``start``, so each reachable state runs the branch step once however
    many chains reach it.
    """
    anchor, end = window
    last = len(series_list) - 1
    ways: Dict[int, int] = {bisect_left(series_list[0].times, anchor): 1}
    for i in range(last):
        reached: Dict[int, int] = {}
        for start, count in ways.items():
            for _, next_start, _ in window_branches(series_list, i, start, end, phi):
                reached[next_start] = reached.get(next_start, 0) + count
        if not reached:
            return 0
        ways = reached
    total = 0
    for start, count in ways.items():
        if window_branches(series_list, last, start, end, phi):
            total += count
    return total


def count_instances_in_match(
    match: StructuralMatch,
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> int:
    """Number of maximal instances of the motif within one structural match.

    ``anchor_range`` restricts counting to windows anchored in the half-open
    interval ``[lo, hi)`` (the :mod:`repro.parallel` shard-ownership
    contract, applied by :func:`repro.core.windows.iter_maximal_windows`).
    """
    motif = match.motif
    delta = motif.delta if delta is None else delta
    phi = motif.phi if phi is None else phi
    series_list = match.series
    if below_phi(series_list, phi):
        return 0
    total = 0
    for window in iter_maximal_windows(
        series_list[0], series_list[-1], delta, anchor_range=anchor_range
    ):
        total += count_window_instances(series_list, window, phi)
    return total


def count_instances(
    matches: Sequence[StructuralMatch],
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> int:
    """Total maximal instance count across structural matches."""
    return sum(
        count_instances_in_match(
            match, delta=delta, phi=phi, anchor_range=anchor_range
        )
        for match in matches
    )

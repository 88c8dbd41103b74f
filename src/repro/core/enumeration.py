"""Phase P2: Algorithm 1 — enumerate all maximal motif instances.

Given a structural match ``G_s`` with series ``R(e_1) .. R(e_m)``, the
enumerator slides the maximal δ-windows of :mod:`repro.core.windows` and,
inside each window ``[a, a + δ]``, recursively assigns to every motif edge a
*prefix* of the remaining part of its series (the paper's ``FindInstances``
procedure):

* edge 1 receives all its elements in ``[a, b_1]``,
* edge ``i`` receives all its elements in ``(b_{i-1}, b_i]``,
* the last edge ``m`` receives all its elements in ``(b_{m-1}, a + δ]``,

where the breakpoints ``b_i`` run over element timestamps. Two checks make
the output exactly the *maximal* instances:

1. **Prefix validity** (the paper's "no element of e2 between (13,2) and
   (15,3)" remark): a prefix of edge ``i`` ending at element ``x_j`` is
   extended only if the next element ``x_{j+1}`` of the same series (within
   the window) does **not** precede the first available element of edge
   ``i+1``; otherwise ``x_{j+1}`` could be added to edge ``i``'s set without
   violating order or duration, so every completion would be non-maximal.
2. **φ-pruning** (line 16 of Algorithm 1): a prefix whose aggregated flow is
   below φ cannot be an edge-set of a valid instance — the recursion is cut
   immediately. (Longer prefixes have larger flow, so the scan continues.)
   The ``prefix_pruning=False`` ablation defers the φ test to complete
   instances; the result set is identical, only slower to produce.

Both checks live in :func:`window_branches`, the one branch step of the
recursion; :mod:`repro.core.counting` and :mod:`repro.core.topk` recurse
over the same step.

Duplicate freedom: within a window, distinct breakpoint choices produce
distinct edge-sets; across windows, every emitted instance starts exactly at
its window anchor (first edge-set always contains the anchor element) and
anchors are distinct.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.instance import MotifInstance, Run
from repro.core.matching import StructuralMatch
from repro.core.windows import Window, iter_maximal_windows
from repro.graph.timeseries import EdgeSeries

#: Callback receiving one complete assignment: a tuple of (lo, hi) index
#: ranges, one per motif edge.
RangeCallback = Callable[[Tuple[Tuple[int, int], ...]], None]


def below_phi(series_list: Sequence[EdgeSeries], phi: float) -> bool:
    """Whether a series carries total flow below φ, so that (prefix sums
    round monotonically) every edge-set of the match does too."""
    if phi > 0:
        for series in series_list:
            if series.total_flow < phi:
                return True
    return False


def match_is_feasible(
    series_list: Sequence[EdgeSeries], phi: float
) -> bool:
    """Cheap output-preserving prechecks for one *unpruned* structural match.

    Pure phase P1 ignores time and flow, so most structural matches of
    larger motifs cannot host any instance. Two O(m log n) checks reject
    them before any window is opened:

    * **flow feasibility** — :func:`below_phi`;
    * **temporal feasibility** — instances need a strictly time-respecting
      chain across the series; the greedy earliest walk (first element of
      ``R(e_1)``, then the first strictly later element of ``R(e_2)``, …)
      exists iff any such chain exists (ignoring δ, which the window
      iterator enforces later).

    Streaming is the one caller: offline P2 reads
    :class:`~repro.core.matching.MatchCache` lists, whose P1 already ran
    the temporal test.
    """
    if below_phi(series_list, phi):
        return False
    t = series_list[0].first_time
    for series in series_list[1:]:
        idx = series.first_index_after(t)
        if idx >= len(series):
            return False
        t = series.times[idx]
    return True


def window_branches(
    series_list: Sequence[EdgeSeries],
    i: int,
    start: int,
    end: float,
    phi: float,
) -> List[Tuple[int, int, float]]:
    """One step of ``FindInstances``: the valid prefixes of edge ``i``.

    Edge ``i``'s edge-set starts at index ``start`` of ``series_list[i]``
    and may take elements up to the window end ``end``. Returns one
    ``(j, next_start, prefix_flow)`` per prefix ``[start, j]`` that passes
    prefix validity and carries at least ``phi`` flow, where ``next_start``
    is the first element of edge ``i + 1`` after the prefix (``-1`` for the
    last edge, whose only prefix runs to the window end). Enumeration,
    counting and top-k all recurse over this step; it is the only place
    that applies the two checks of the module docstring.
    """
    series = series_list[i]
    times = series.times
    if start >= len(times) or times[start] > end:
        return []
    last_idx = bisect_right(times, end) - 1
    cum = series._cum  # prefix sums (friend access)
    base = cum[start]
    if i == len(series_list) - 1:
        flow = cum[last_idx + 1] - base
        return [(last_idx, -1, flow)] if flow >= phi else []
    next_times = series_list[i + 1].times
    next_n = len(next_times)
    # First element of the next edge strictly after the running prefix end;
    # advanced incrementally as the prefix grows.
    next_idx = bisect_right(next_times, times[start])
    branches = []
    for j in range(start, last_idx + 1):
        t_j = times[j]
        while next_idx < next_n and next_times[next_idx] <= t_j:
            next_idx += 1
        if next_idx >= next_n or next_times[next_idx] > end:
            # No next-edge element left in the window; longer prefixes
            # only push the requirement later — stop.
            break
        if j < last_idx and times[j + 1] < next_times[next_idx]:
            # Prefix validity: element j+1 would be addable to this
            # edge-set, so completions would be non-maximal.
            continue
        flow = cum[j + 1] - base
        if flow < phi:
            continue  # φ-pruning (line 16 of Algorithm 1)
        branches.append((j, next_idx, flow))
    return branches


def enumerate_window_ranges(
    series_list: Sequence[EdgeSeries],
    window: Window,
    phi: float,
    emit: RangeCallback,
    prefix_pruning: bool = True,
) -> None:
    """Run ``FindInstances`` for one window, emitting index-range tuples.

    ``series_list[i]`` is ``R(e_{i+1})`` of the match. Ranges are inclusive
    ``(lo, hi)`` index pairs into the corresponding series. With
    ``prefix_pruning=False`` no prefix is cut on φ (flows are positive, so
    a cut at 0 keeps every valid prefix) and the caller applies φ to the
    emitted assignments.
    """
    anchor, end = window
    cut = phi if prefix_pruning else 0.0
    last = len(series_list) - 1
    runs: List[Tuple[int, int]] = [(0, -1)] * (last + 1)

    def recurse(i: int, start: int) -> None:
        for j, next_start, _ in window_branches(series_list, i, start, end, cut):
            runs[i] = (start, j)
            if i == last:
                emit(tuple(runs))
            else:
                recurse(i + 1, next_start)

    try:
        recurse(0, bisect_left(series_list[0].times, anchor))
    finally:
        # recurse is a cycle the collector frees later: let it hold no
        # series, which may be views of a store closed in the meantime.
        del series_list, emit


def find_instances_in_match(
    match: StructuralMatch,
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    on_instance: Optional[Callable[[MotifInstance], None]] = None,
    skip_rule: bool = True,
    prefix_pruning: bool = True,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> List[MotifInstance]:
    """All maximal instances of the motif within one structural match.

    Parameters
    ----------
    match:
        A phase-P1 structural match.
    delta, phi:
        Override the motif's constraints (default: the motif's own δ, φ).
    on_instance:
        When given, instances are streamed to this callback and the
        returned list is empty (avoids materialising huge result sets).
    skip_rule, prefix_pruning:
        Ablation switches; leave at defaults for correct/efficient search.
        With ``prefix_pruning=False`` the φ test happens on complete
        assignments only (identical results, more work).
    anchor_range:
        Optional half-open interval ``[lo, hi)``: only windows whose anchor
        (== the emitted instances' start time) falls inside it are
        enumerated (see :func:`repro.core.windows.iter_maximal_windows`).
    """
    motif = match.motif
    delta = motif.delta if delta is None else delta
    phi = motif.phi if phi is None else phi
    series_list = match.series
    collected: List[MotifInstance] = []
    if below_phi(series_list, phi):
        return collected
    sink = on_instance if on_instance is not None else collected.append

    def emit(ranges: Tuple[Tuple[int, int], ...]) -> None:
        runs = tuple(
            Run(series_list[i], lo, hi) for i, (lo, hi) in enumerate(ranges)
        )
        instance = MotifInstance(motif, match.vertex_map, runs)
        if not prefix_pruning and any(run.flow < phi for run in runs):
            return  # deferred φ check (ablation mode)
        sink(instance)

    for window in iter_maximal_windows(
        series_list[0], series_list[-1], delta, skip_rule,
        anchor_range=anchor_range,
    ):
        enumerate_window_ranges(
            series_list, window, phi, emit, prefix_pruning=prefix_pruning
        )
    return collected


def find_instances(
    matches: Sequence[StructuralMatch],
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    on_instance: Optional[Callable[[MotifInstance], None]] = None,
    skip_rule: bool = True,
    prefix_pruning: bool = True,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> List[MotifInstance]:
    """All maximal instances across a set of structural matches (phase P2)."""
    collected: List[MotifInstance] = []
    sink = on_instance if on_instance is not None else collected.append
    for match in matches:
        find_instances_in_match(
            match,
            delta=delta,
            phi=phi,
            on_instance=sink,
            skip_rule=skip_rule,
            prefix_pruning=prefix_pruning,
            anchor_range=anchor_range,
        )
    return collected

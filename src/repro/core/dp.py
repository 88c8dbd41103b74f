"""The dynamic-programming top-1 module (Section 5.1, Algorithm 2, Eq. 2).

For one structural match ``G_s`` and one window ``T`` with event timestamps
``t_1 < t_2 < ... < t_τ`` (union over all edges of the match, ``t_1`` being
the window anchor), let ``Flow([t_1, t_i], κ)`` be the flow of the best
instance of the prefix motif ``M_κ`` (first κ edges) inside ``[t_1, t_i]``.
Equation 2 of the paper:

    Flow([t1,ti],κ) = max_{1<j≤i} min( Flow([t1,t_{j-1}], κ-1),
                                       flow([t_j, t_i], κ) )

where ``flow([t_j,t_i],κ)`` is the aggregated flow of ``R(e_κ)`` inside the
closed interval. ``Flow([t1,ti],1)`` is the aggregated flow of ``R(e_1)``
in ``[t_1, t_i]``.

Two implementations are provided:

* :func:`max_flow_in_window` with ``method="quadratic"`` — the paper's
  ``O(m·τ²)`` recurrence, verbatim;
* ``method="fused"`` — an amortized ``O(m·τ)`` layer pass.
  ``Flow([t1,t_{j-1}],κ-1)`` is non-decreasing and ``flow([t_j,t_i],κ)``
  non-increasing in ``j``, so the inner maximization sits at their
  crossing point; the crossing index is also non-decreasing in ``i`` (the
  interval sum only grows as the right endpoint moves), so one monotone
  two-pointer sweep finds it for the whole layer. The per-layer
  interval-sum boundaries are precomputed into flat local arrays so the
  inner loop touches no function call.

``method="auto"`` (the default) picks ``quadratic`` for windows with
fewer than 16 timestamps and ``fused`` otherwise. Both return identical
values (property-tested); the ablation benchmark and
``benchmarks/bench_columnar_store.py`` compare them.

The returned instance (when reconstruction is requested) is *valid* but not
necessarily *maximal*: the DP optimizes flow only, and a maximal extension
never decreases flow, so the maximum over maximal instances equals the DP
optimum (tests assert this against full enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as _heap_merge
from typing import List, Optional, Sequence, Tuple

from repro.core.instance import MotifInstance, Run
from repro.core.matching import StructuralMatch
from repro.core.windows import Window, iter_maximal_windows
from repro.graph.timeseries import EdgeSeries
from repro.obs import metrics as _metrics

_METHODS = ("quadratic", "fused", "auto")

#: Below this window size the quadratic recurrence's tiny constant beats
#: the fused pass's per-layer setup.
_FUSED_MIN_TAU = 16


@dataclass(frozen=True)
class TopOneResult:
    """The maximum-flow instance of a motif (or of one match / window)."""

    flow: float
    window: Optional[Window]
    match: Optional[StructuralMatch]
    instance: Optional[MotifInstance]


def _window_times(
    series_list: Sequence[EdgeSeries], window: Window
) -> List[float]:
    """Sorted distinct event timestamps of the match inside the window.

    Each series is already time-sorted, so the union is a k-way merge of
    the in-window slices (``O(τ log m)``) with consecutive duplicates
    dropped — no set build, no global re-sort.
    """
    segments = []
    for series in series_list:
        lo, hi = series.indices_in_interval(window.start, window.end)
        if hi >= lo:
            segments.append(series.times[lo : hi + 1])
    if not segments:
        return []
    out: List[float] = []
    last = None
    for t in segments[0] if len(segments) == 1 else _heap_merge(*segments):
        if t != last:
            out.append(t)
            last = t
    return out


def _edge_layer_bounds(
    series: EdgeSeries, times: List[float]
) -> Tuple[List[int], List[int], List[float], List[float]]:
    """Fused per-layer precomputation for O(1) inline interval sums.

    For each global time index ``i`` of the window timeline:

    * ``left[i]``  — first series index with time >= times[i],
    * ``right[i]`` — last series index with time <= times[i] (may be -1),
    * ``left_cum[i]``  — ``cum[left[i]]``,
    * ``right_cum[i]`` — ``cum[right[i] + 1]``,

    so ``flow([t_j, t_i], κ) = right_cum[i] - left_cum[j]`` whenever
    ``right[i] >= left[j]`` (and 0 otherwise) without touching the series
    object inside the DP loops. One linear sweep per boundary — both
    pointers are monotone in ``i``.
    """
    stimes = series.times
    cum = series._cum  # prefix sums (friend access)
    n = len(stimes)
    left: List[int] = []
    right: List[int] = []
    left_cum: List[float] = []
    right_cum: List[float] = []
    lo = 0
    for t in times:
        while lo < n and stimes[lo] < t:
            lo += 1
        left.append(lo)
        left_cum.append(cum[lo])
    hi = -1
    for t in times:
        while hi + 1 < n and stimes[hi + 1] <= t:
            hi += 1
        right.append(hi)
        right_cum.append(cum[hi + 1])
    return left, right, left_cum, right_cum


def max_flow_in_window(
    series_list: Sequence[EdgeSeries],
    window: Window,
    method: str = "auto",
    reconstruct: bool = False,
) -> Tuple[float, Optional[List[Tuple[float, float]]]]:
    """Algorithm 2 on one window.

    Returns ``(flow, intervals)`` where ``intervals`` (only when
    ``reconstruct=True`` and flow > 0) gives per motif edge the closed time
    interval whose series elements form the optimal edge-sets.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    times = _window_times(series_list, window)
    tau = len(times)
    m = len(series_list)
    reg = _metrics.active()
    if reg is not None:
        # Kernel counters are derived arithmetically once per call — the
        # DP loops themselves stay untouched, so disabled-mode overhead
        # is exactly this one predicate. Cells = τ·m (one DP cell per
        # (timestamp, layer)); every cell past the base layer resolves
        # its interval sum from two O(1) prefix-sum reads, and the base
        # layer uses one per cell: reuse hits = τ + 2·τ·(m-1).
        reg.counter("p2.dp.windows_scanned").inc()
        reg.counter("p2.dp.cells").inc(tau * m)
        reg.counter("p2.dp.interval_sum_reuse").inc(
            tau + 2 * tau * (m - 1) if m > 0 else 0
        )
    if tau == 0:
        return 0.0, None
    if method == "auto":
        method = "fused" if tau >= _FUSED_MIN_TAU else "quadratic"

    # Per κ-layer flat boundary/prefix-sum arrays: inside the layer loops
    # an interval sum is two list reads and a subtraction —
    # flow([t_j,t_i],κ) = rcum[i] - lcum[j] when right[i] >= left[j].
    bounds = [_edge_layer_bounds(s, times) for s in series_list]

    # Base layer: Flow([t1, ti], 1) = flow([t1, ti], 1).
    left0, right0, lcum0, rcum0 = bounds[0]
    l0, base = left0[0], lcum0[0]
    current = [
        rcum0[i] - base if right0[i] >= l0 else 0.0 for i in range(tau)
    ]
    choices: List[List[int]] = []  # choices[kappa-1][i] = chosen j

    for kappa in range(1, m):
        previous = current
        current = [0.0] * tau
        choice_row = [0] * tau
        left, right, lcum, rcum = bounds[kappa]
        if method == "quadratic":
            for i in range(tau):
                best = 0.0
                best_j = 0
                ri, rci = right[i], rcum[i]
                for j in range(1, i + 1):
                    isum = rci - lcum[j] if ri >= left[j] else 0.0
                    prev = previous[j - 1]
                    value = prev if prev < isum else isum
                    if value > best:
                        best = value
                        best_j = j
                current[i] = best
                choice_row[i] = best_j
        else:  # fused: amortized O(τ) monotone two-pointer sweep
            # The crossing index (largest j with previous[j-1] <= the
            # interval sum) is non-decreasing in i: moving the right
            # endpoint t_i later only grows flow([t_j,t_i],κ) while
            # previous[j-1] is fixed. One pointer therefore serves the
            # whole layer instead of a binary search per cell.
            cross = 0
            for i in range(tau):
                ri, rci = right[i], rcum[i]
                while cross < i:
                    nj = cross + 1
                    isum = rci - lcum[nj] if ri >= left[nj] else 0.0
                    if previous[cross] <= isum:
                        cross = nj
                    else:
                        break
                best = 0.0
                best_j = 0
                if cross >= 1:  # optimum at the crossing: min == previous
                    isum = rci - lcum[cross] if ri >= left[cross] else 0.0
                    prev = previous[cross - 1]
                    best = prev if prev < isum else isum
                    best_j = cross
                nj = cross + 1
                if 1 <= nj <= i:  # or just past it: min == interval sum
                    isum = rci - lcum[nj] if ri >= left[nj] else 0.0
                    prev = previous[nj - 1]
                    value = prev if prev < isum else isum
                    if value > best:
                        best = value
                        best_j = nj
                current[i] = best
                choice_row[i] = best_j
        choices.append(choice_row)

    best_flow = current[tau - 1]
    if not reconstruct or best_flow <= 0.0:
        return best_flow, None

    # Walk the choice pointers back to per-edge closed intervals.
    intervals: List[Tuple[float, float]] = [(0.0, 0.0)] * m
    i = tau - 1
    for kappa in range(m - 1, 0, -1):
        j = choices[kappa - 1][i]
        intervals[kappa] = (times[j], times[i])
        i = j - 1
    intervals[0] = (times[0], times[i])
    return best_flow, intervals


def _instance_from_intervals(
    match: StructuralMatch, intervals: List[Tuple[float, float]]
) -> MotifInstance:
    """Materialize the DP reconstruction as a MotifInstance."""
    runs = []
    for kappa, (start, end) in enumerate(intervals):
        series = match.series[kappa]
        lo, hi = series.indices_in_interval(start, end)
        runs.append(Run(series, lo, hi))
    return MotifInstance(match.motif, match.vertex_map, tuple(runs))


def top_one_in_match(
    match: StructuralMatch,
    delta: Optional[float] = None,
    method: str = "auto",
    reconstruct: bool = True,
    incumbent: float = 0.0,
) -> TopOneResult:
    """The maximum-flow instance within one structural match (Algorithm 2).

    Mirrors the paper's "Extensibility" note: per-match top-1 supports
    comparing entity groups by their max-flow interactions.

    ``incumbent`` is an optional pruning floor (the best flow found in
    other matches): windows whose per-edge flow bound cannot exceed it are
    skipped, and instances at or below it are not reported. The default
    0.0 reports the match's true optimum.
    """
    motif_delta = match.motif.delta if delta is None else delta
    series_list = match.series
    best = TopOneResult(0.0, None, match, None)
    reg = _metrics.active()
    pruned = reg.counter("p2.dp.windows_pruned") if reg is not None else None
    for window in iter_maximal_windows(
        series_list[0], series_list[-1], motif_delta
    ):
        # Window-level bound: the instance flow cannot exceed the smallest
        # per-edge aggregated flow available inside the window; skip
        # windows that cannot beat the incumbent before paying the O(τ²)
        # recurrence.
        bound = min(
            s.flow_in_interval(window.start, window.end) for s in series_list
        )
        if bound <= max(best.flow, incumbent):
            if pruned is not None:
                pruned.inc()
            continue
        flow, intervals = max_flow_in_window(
            series_list, window, method=method, reconstruct=reconstruct
        )
        if flow > best.flow and flow > incumbent:
            instance = (
                _instance_from_intervals(match, intervals)
                if intervals is not None
                else None
            )
            best = TopOneResult(flow, window, match, instance)
    return best


def top_one_per_window(
    match: StructuralMatch,
    delta: Optional[float] = None,
    method: str = "auto",
) -> List[TopOneResult]:
    """Per-window top-1 flows (the paper's second extensibility variant:
    compare interaction volume across periods of time)."""
    motif_delta = match.motif.delta if delta is None else delta
    series_list = match.series
    results = []
    for window in iter_maximal_windows(
        series_list[0], series_list[-1], motif_delta
    ):
        flow, _ = max_flow_in_window(series_list, window, method=method)
        results.append(TopOneResult(flow, window, match, None))
    return results


def top_one_instance(
    matches: Sequence[StructuralMatch],
    delta: Optional[float] = None,
    method: str = "auto",
    reconstruct: bool = True,
) -> TopOneResult:
    """The maximum-flow instance of the motif over all structural matches."""
    best = TopOneResult(0.0, None, None, None)
    # Visiting promising matches first establishes a strong incumbent early,
    # letting the per-window bound skip most of the remaining work. The
    # bound (smallest total series flow — no instance can exceed it) is
    # computed once per match and carried alongside it, serving both as
    # the sort key and as the loop's cutoff test.
    decorated = sorted(
        ((min(s.total_flow for s in m.series), m) for m in matches),
        key=lambda pair: pair[0],
        reverse=True,
    )
    for bound, match in decorated:
        if bound <= best.flow:
            break  # sorted order: no later match can improve either
        candidate = top_one_in_match(
            match,
            delta=delta,
            method=method,
            reconstruct=reconstruct,
            incumbent=best.flow,
        )
        if candidate.flow > best.flow:
            best = candidate
    return best

"""Maximal δ-window iteration with the paper's skip rule (Section 4).

Algorithm 1 slides a window of length δ over the timeline of a structural
match. Because every edge-set of an instance must be temporally after the
edge-set of the previous motif edge, the temporally *first* interaction of
any instance belongs to ``R(e_1)``; windows are therefore anchored at the
(distinct) timestamps of ``R(e_1)``.

**Skip rule.** The paper skips a window position when it contains no new
element of the last motif edge ``R(e_m)`` compared to the previous anchored
position (its ``[13, 23]`` example). Let ``a_{j-1} < a_j`` be consecutive
anchors and ``Λ_j`` the last ``R(e_m)`` timestamp within ``[a_j, a_j + δ]``.
Every instance produced inside a window extends its last edge-set to the
window end, hence contains ``Λ_j``. If ``Λ_j == Λ_{j-1}``, then
``Λ_j ≤ a_{j-1} + δ``, so the element at ``a_{j-1}`` can always be added to
the first edge-set of any instance anchored at ``a_j`` without violating
order (it precedes the anchor) or duration (span ``Λ_j - a_{j-1} ≤ δ``) —
every such instance is non-maximal, and the window is safely skipped.
Conversely, if ``Λ_j > Λ_{j-1}`` then ``Λ_j > a_{j-1} + δ`` (otherwise the
previous window would already contain it), so extending below ``a_j``
violates δ and anchored instances can be maximal. Together with the prefix
validity rule in :mod:`repro.core.enumeration` this yields *exactly* the
maximal instances, each once — property-tested against a brute-force oracle
in ``tests/property``.

This module owns the one walk over a match's anchors: tied-anchor dedup,
the skip rule, shard ownership (``anchor_range``) and resumption from a
streaming cursor (``cursor``/``horizon``). Enumeration, counting, top-k,
the DP module and the incremental sweep all iterate windows through it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, NamedTuple, Optional, Tuple

from repro.graph.timeseries import EdgeSeries

_INF = float("inf")
_NEG_INF = float("-inf")


class Window(NamedTuple):
    """A closed time window ``[start, end]`` with ``end = start + δ``."""

    start: float
    end: float


def iter_maximal_windows(
    first_series: EdgeSeries,
    last_series: EdgeSeries,
    delta: float,
    skip_rule: bool = True,
    *,
    anchor_range: Optional[Tuple[float, float]] = None,
    cursor=None,
    horizon: float = _INF,
) -> Iterator[Window]:
    """Yield the window positions Algorithm 1 processes for one match.

    Parameters
    ----------
    first_series:
        ``R(e_1)`` — the series on the first motif edge of the match;
        windows are anchored at its distinct timestamps.
    last_series:
        ``R(e_m)`` — the series on the last motif edge; used by the skip
        rule. For single-edge motifs pass the same series twice.
    delta:
        The motif duration constraint δ.
    skip_rule:
        Disable only for the ablation benchmark; all windows anchored at
        first-edge events are then returned (instances found in skipped
        windows are non-maximal duplicates, so correctness code must keep
        this on).
    anchor_range:
        Optional half-open interval ``[lo, hi)``: only windows anchored
        inside it are yielded. Anchors below ``lo`` are still walked, so
        the skip rule sees the same history as an unrestricted walk — this
        is what makes δ-overlap sharding (:mod:`repro.parallel`) exact.
    cursor, horizon:
        Resume a streaming walk. ``cursor`` is any object with
        ``last_anchor`` (the latest anchor already walked) and ``prev_lam``
        (the skip-rule frontier, ``None`` before the first window), such
        as :class:`repro.core.incremental.MatchProgress`. The walk starts
        after ``cursor.last_anchor``, stops before the first window whose
        end is not below ``horizon`` (later events could still land in
        it), and writes its position back to ``cursor`` once exhausted.

    Notes
    -----
    Windows whose span contains no ``R(e_m)`` element at or after the anchor
    are silently dropped — they cannot produce any instance.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta!r}")
    lo, hi = anchor_range if anchor_range is not None else (_NEG_INF, _INF)
    times = first_series.times
    last_times = last_series.times
    n = len(times)
    if cursor is None:
        last_anchor, prev_lam, i = _NEG_INF, None, 0
    else:
        last_anchor, prev_lam = cursor.last_anchor, cursor.prev_lam
        i = bisect_right(times, last_anchor)
    while i < n:
        anchor = times[i]
        i += 1
        if anchor == last_anchor:
            continue  # tied anchors produce one window
        end = anchor + delta
        if anchor >= hi or end >= horizon:
            break  # anchors are non-decreasing: nothing later qualifies
        last_anchor = anchor
        j = bisect_right(last_times, end) - 1
        if j < 0:
            continue
        lam = last_times[j]
        if lam < anchor:
            continue  # no last-edge element inside the window
        if skip_rule:
            if prev_lam is not None and lam <= prev_lam:
                continue
            prev_lam = lam
        if anchor >= lo:
            yield Window(anchor, end)
    if cursor is not None:
        cursor.last_anchor = last_anchor
        cursor.prev_lam = prev_lam

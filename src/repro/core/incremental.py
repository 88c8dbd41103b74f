"""Fully incremental maintenance of structural matches and closed windows.

Re-running the two-phase search on every poll would cost
``O(|E| + matches)`` per poll: rebuild the whole
:class:`~repro.graph.timeseries.TimeSeriesGraph` and re-enumerate every
structural match. The streaming detector instead maintains both per
appended edge, built on two observations about the paper's two-phase
search:

1. **Phase P1 is event-free.** A structural match depends only on *which*
   ordered pairs are connected, never on the events they carry. Appending
   an event to an existing pair therefore changes nothing in P1; only the
   *first* event of a pair can create matches — and every match it creates
   contains that pair. :func:`repro.core.matching.matches_through` finds
   exactly those by anchoring the offline P1 extension step at the new
   edge (each candidate position once, deduplicated by first occurrence)
   and extending backwards/forwards, so discovery cost is proportional to
   the walks through the new edge, not to the whole graph.

2. **Window closure is a merge by deadline.** A window anchored at ``a``
   finalizes when the watermark passes ``a + δ``, but the walk of
   :func:`repro.core.windows.iter_maximal_windows` yields it only when
   ``R(e_m)`` holds an element in ``[a, a + δ]`` past the skip-rule
   frontier ``Λ``. Per match, :func:`next_window_end` bounds the end of
   the next window that can yield: with ``τ`` the first ``R(e_m)`` time
   at or after the next anchor and past ``Λ``, it is the end of the first
   anchor whose window reaches ``τ``. Later events cannot undercut it
   (per-pair appends are non-decreasing), and the anchors before it can
   never yield, so the cursor leaps over them. A min-heap over these
   deadlines lets :meth:`IncrementalMatcher.emit_closed` pop exactly the
   matches that may have a closed window to emit — a poll touches no
   match whose windows are all still open or cannot yield. A popped match
   resumes the offline window walk from its :class:`MatchProgress` cursor
   and enumerates each closed window with the offline Algorithm 1 step,
   so the two paths share every window and branch decision, and each
   instance comes out at the first poll whose horizon passes its window
   end.

Matches that cannot yet host any instance (no strictly time-respecting
chain, or total flow below φ — both *monotone* in appended events) are
parked in a per-pair watch table and rechecked only when one of their own
pairs receives an event. A feasible match with no deadline is parked on
one pair: on its last-edge pair while no ``R(e_m)`` element lies past
``Λ`` and its next anchor, on its first-edge pair once no anchor it holds
can yield; the next event on that pair reschedules it. Nothing is ever
recomputed from scratch.

Exactly-once and equivalence with the offline
:func:`repro.core.enumeration.find_instances` are property-tested in
``tests/property/test_streaming_oracle.py`` against random interleavings
of ``add``/``poll``/``flush``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.enumeration import enumerate_window_ranges, match_is_feasible
from repro.core.instance import MotifInstance, Run
from repro.core.matching import (
    StructuralMatch,
    iter_structural_matches,
    matches_through,
)
from repro.core.motif import Motif
from repro.core.windows import iter_maximal_windows
from repro.graph.events import Node
from repro.graph.timeseries import GrowableTimeSeriesGraph

__all__ = [
    "IncrementalMatcher",
    "MatchProgress",
    "match_key",
    "next_window_end",
    "sweep_closed_windows",
]

_Pair = Tuple[Node, Node]
_NEG_INF = float("-inf")


def match_key(match: StructuralMatch) -> Tuple:
    """Stable identity of one structural match: vertex map *and* edge map.

    The vertex map alone is not enough: two distinct matches can map the
    same graph vertices while assigning different edge sequences to the
    motif edges (multigraph-style parallel series over the same pair).
    Keying per-match skip-rule state on the vertex map would let such
    matches share — and corrupt — each other's progress, silently dropping
    instances. The key therefore includes the full edge mapping.
    """
    return (
        match.vertex_map,
        tuple((s.src, s.dst) for s in match.series),
    )


class MatchProgress:
    """Mutable per-match emission state (one object per structural match).

    ``last_anchor`` is the latest window anchor already processed (all
    windows at or before it are finalized — the exactly-once cursor);
    ``prev_lam`` is the last-edge frontier ``Λ`` of the previously emitted
    window (the paper's skip-rule state). Together they are the ``cursor``
    that :func:`repro.core.windows.iter_maximal_windows` resumes from and
    advances. ``feasible`` tells :class:`IncrementalMatcher` whether the
    match has left the waiting state.
    """

    __slots__ = ("match", "last_anchor", "prev_lam", "feasible")

    def __init__(self, match: Optional[StructuralMatch] = None) -> None:
        self.match = match
        self.last_anchor: float = _NEG_INF
        self.prev_lam: Optional[float] = None
        self.feasible = False


def next_window_end(
    match: StructuralMatch, progress: MatchProgress, delta: float
) -> Optional[float]:
    """Lower bound on the end of the next window that can yield, or None.

    The walk yields the window anchored at ``a`` only when ``R(e_m)``
    holds an element in ``[a, a + δ]`` past ``progress.prev_lam``. Such
    an element is at least ``τ``, the first ``R(e_m)`` time at or after
    the next unprocessed anchor and past ``prev_lam``; later appends to
    ``R(e_m)`` come after ``τ``, so no later event lowers the bound. The
    bound is ``a + δ`` for the first anchor ``a`` with ``a + δ ≥ τ``,
    tested with the walk's own float expression. Anchors before it can
    never yield: ``last_anchor`` leaps over them, as the walk would have.

    Returns None when no window can yield before a new event on one of
    the match's pairs. If ``progress.last_anchor`` has reached the last
    ``R(e_1)`` anchor, only a new anchor helps (every anchor is processed,
    or none reaches ``τ`` and all were leapt); otherwise no ``τ`` exists
    yet and only a new ``R(e_m)`` event helps.
    """
    times = match.series[0].times
    n = len(times)
    i = bisect_right(times, progress.last_anchor)
    if i == n:
        return None
    first = times[i]
    prev_lam = progress.prev_lam
    last_times = match.series[-1].times
    if prev_lam is None or prev_lam < first:
        if last_times[-1] < first:
            return None
        tau = last_times[bisect_left(last_times, first)]
    else:
        if last_times[-1] <= prev_lam:
            return None
        tau = last_times[bisect_right(last_times, prev_lam)]
    if times[-1] + delta < tau:
        progress.last_anchor = times[-1]
        return None
    # ``τ − δ`` only seeds the search: it may round to either side of the
    # boundary, which the walk's expression ``anchor + δ`` then settles.
    k = bisect_left(times, tau - delta, i)
    while k > i and times[k - 1] + delta >= tau:
        k = bisect_left(times, times[k - 1], i, k)
    while times[k] + delta < tau:
        k = bisect_right(times, times[k], k)
    if k > i:
        progress.last_anchor = times[k - 1]
    return times[k] + delta


def sweep_closed_windows(
    match: StructuralMatch,
    progress: MatchProgress,
    horizon: float,
    delta: float,
    phi: float,
    sink: Callable[[MotifInstance], None],
) -> int:
    """Emit all maximal instances of ``match`` in windows closed by ``horizon``.

    Resumes the window walk of :func:`repro.core.windows.iter_maximal_windows`
    from ``progress`` (binary search to the first unprocessed anchor — no
    O(n) rescan) up to the horizon, runs Algorithm 1's per-window
    enumeration on each window, and leaves ``progress`` positioned for the
    next call. Returns the number of instances emitted.
    """
    series_list = match.series
    emitted = 0
    for window in iter_maximal_windows(
        series_list[0], series_list[-1], delta,
        cursor=progress, horizon=horizon,
    ):
        found: List[Tuple[Tuple[int, int], ...]] = []
        enumerate_window_ranges(series_list, window, phi, found.append)
        for ranges in found:
            runs = tuple(
                Run(series_list[k], lo, hi) for k, (lo, hi) in enumerate(ranges)
            )
            sink(MotifInstance(match.motif, match.vertex_map, runs))
        emitted += len(found)
    return emitted


class IncrementalMatcher:
    """Incremental structural-match index with deadline-driven emission.

    Owns the growable graph's match set for one ``(motif, δ, φ)`` query
    and keeps, per match, a :class:`MatchProgress`. Matches move between
    four disjoint states:

    ``waiting``
        not yet feasible (no strictly time-respecting chain, or a series
        below φ); parked in ``_waiting[pair]`` for each of its pairs and
        rechecked only when one of those pairs receives an event.
        Feasibility is monotone under appends, so parking is safe.
    ``scheduled``
        feasible with a window that can yield; a single entry
        ``(next_window_end bound, match index)`` lives in the min-heap.
    ``drained``
        feasible, but every anchor is processed or none reaches an
        ``R(e_m)`` element past ``Λ``; parked in ``_parked`` on the
        first-edge pair, woken by the next new anchor.
    ``last-pair wait``
        feasible with unprocessed anchors, but ``R(e_m)`` holds nothing
        past ``Λ`` and the next anchor; parked in ``_parked`` on the
        last-edge pair, woken by the next ``R(e_m)`` event.

    :meth:`add` costs O(1) amortized for events on known pairs (plus any
    wakeups that event triggers); the first event of a new pair
    additionally discovers the matches through that pair. :meth:`emit_closed`
    costs O(log #matches) per popped match plus the per-window
    enumeration work — matches without ready windows are never touched.
    """

    def __init__(
        self,
        graph: GrowableTimeSeriesGraph,
        motif: Motif,
        delta: float,
        phi: float,
    ) -> None:
        self.graph = graph
        self.motif = motif
        self.delta = delta
        self.phi = phi
        self._states: List[MatchProgress] = []
        self._heap: List[Tuple[float, int]] = []
        self._waiting: Dict[_Pair, List[int]] = {}
        self._parked: Dict[_Pair, List[int]] = {}
        self.matches_discovered = 0
        self.feasibility_checks = 0
        # Profiling counters (plain ints — an increment costs less than a
        # registry gate, so these stay on unconditionally and are lifted
        # into the metrics registry by StreamingDetector.metrics()):
        # anchored-P1 DFS expansion steps, waiting/parked-table wakeups,
        # and deadline-heap traffic.
        self.expansions = 0
        self.watchlist_hits = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        # Bootstrap from whatever the graph already holds (usually empty).
        # No temporal/φ pruning here: pruned matches could become feasible
        # after later appends, so the index must keep them all and defer
        # feasibility to the monotone waiting/scheduled lifecycle.
        for match in iter_structural_matches(graph, motif):
            self._register(match)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def match_count(self) -> int:
        """Number of structural matches discovered so far."""
        return len(self._states)

    @property
    def scheduled_count(self) -> int:
        """Matches currently carrying a finalization deadline."""
        return len(self._heap)

    def matches(self) -> List[StructuralMatch]:
        """All discovered matches (discovery order)."""
        return [state.match for state in self._states]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def export_progress(self) -> Dict[Tuple, Tuple[float, Optional[float]]]:
        """Per-match emission cursors, keyed by :func:`match_key`.

        The key is graph-content-addressed (vertex map + edge pairs), so
        the cursors can be re-applied to a matcher rebuilt from a restored
        graph even though match *indices* depend on discovery order.
        """
        return {
            match_key(state.match): (state.last_anchor, state.prev_lam)
            for state in self._states
        }

    def apply_progress(
        self, progress_by_key: Dict[Tuple, Tuple[float, Optional[float]]]
    ) -> None:
        """Overlay saved emission cursors onto the current match set.

        Used on checkpoint restore, after the match set has been
        re-derived from the graph: sets each match's ``last_anchor`` /
        ``prev_lam`` and rebuilds the deadline heap and parked table from
        them, so the next :meth:`emit_closed` resumes instead of
        re-emitting. Matches absent from ``progress_by_key`` keep their
        fresh cursors.
        """
        self._heap = []
        self._parked = {}
        for idx, state in enumerate(self._states):
            saved = progress_by_key.get(match_key(state.match))
            if saved is not None:
                state.last_anchor, state.prev_lam = saved
            if state.feasible:
                self._schedule(idx, state)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, src: Node, dst: Node, time: float, flow: float) -> None:
        """Ingest one interaction and update the index incrementally."""
        is_new_pair = self.graph.append(src, dst, time, flow)
        pair = (src, dst)
        # Snapshot the wake lists *before* discovery: matches registered
        # below already see the new event, so rechecking them here would
        # pay match_is_feasible twice in the same call.
        waiting = self._waiting.pop(pair, None)
        parked = self._parked.pop(pair, None)
        if is_new_pair:
            series = self.graph.series(src, dst)
            assert series is not None
            found, expanded = matches_through(self.graph, self.motif, series)
            self.expansions += expanded
            for match in found:
                self._register(match)
        if waiting:
            self.watchlist_hits += len(waiting)
            still_waiting: List[int] = []
            for idx in waiting:
                state = self._states[idx]
                if state.feasible:
                    continue  # stale entry left by a wake via another pair
                self.feasibility_checks += 1
                if match_is_feasible(state.match.series, self.phi):
                    state.feasible = True
                    self._schedule(idx, state)
                else:
                    still_waiting.append(idx)
            if still_waiting:
                self._waiting.setdefault(pair, []).extend(still_waiting)
        if parked:
            self.watchlist_hits += len(parked)
            for idx in parked:
                # Parks again when the event opens no window that can
                # yield, e.g. an anchor tied with the processed one.
                self._schedule(idx, self._states[idx])

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit_closed(
        self, horizon: float, sink: Callable[[MotifInstance], None]
    ) -> int:
        """Emit every instance whose window end is strictly below horizon.

        Pops matches in deadline order; each popped match sweeps *all* its
        closed windows in one go and is rescheduled at its next deadline
        (or parked). Deterministic: heap ties break on match index, i.e.
        discovery order.
        """
        heap = self._heap
        emitted = 0
        while heap and heap[0][0] < horizon:
            _, idx = heappop(heap)
            self.heap_pops += 1
            state = self._states[idx]
            emitted += sweep_closed_windows(
                state.match, state, horizon, self.delta, self.phi, sink
            )
            self._schedule(idx, state)
        return emitted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _register(self, match: StructuralMatch) -> None:
        idx = len(self._states)
        state = MatchProgress(match)
        self._states.append(state)
        self.matches_discovered += 1
        self.feasibility_checks += 1
        if match_is_feasible(match.series, self.phi):
            state.feasible = True
            self._schedule(idx, state)
        else:
            for pair in {(s.src, s.dst) for s in match.series}:
                self._waiting.setdefault(pair, []).append(idx)

    def _schedule(self, idx: int, state: MatchProgress) -> None:
        end = next_window_end(state.match, state, self.delta)
        if end is not None:
            heappush(self._heap, (end, idx))
            self.heap_pushes += 1
            return
        series = state.match.series
        first = series[0]
        # Drained: only a new anchor can open a window. Otherwise the
        # anchors wait for an R(e_m) event past the frontier.
        pair = first if state.last_anchor >= first.times[-1] else series[-1]
        self._parked.setdefault((pair.src, pair.dst), []).append(idx)

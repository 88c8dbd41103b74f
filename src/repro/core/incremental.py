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
   finalizes when the watermark passes ``a + δ``. Per match, the earliest
   unprocessed anchor gives the next deadline; a min-heap over these
   deadlines lets :meth:`IncrementalMatcher.emit_closed` pop exactly the
   matches with ready windows — a poll touches no match whose windows are
   all still open or already drained. A popped match resumes the offline
   window walk (:func:`repro.core.windows.iter_maximal_windows`) from its
   :class:`MatchProgress` cursor and enumerates each closed window with the
   offline Algorithm 1 step, so the two paths share every window and
   branch decision.

Matches that cannot yet host any instance (no strictly time-respecting
chain, or total flow below φ — both *monotone* in appended events) are
parked in a per-pair watch table and rechecked only when one of their own
pairs receives an event; matches whose anchors are exhausted are parked on
their first-edge pair and woken only by a new anchor. Nothing is ever
recomputed from scratch.

Exactly-once and equivalence with the offline
:func:`repro.core.enumeration.find_instances` are property-tested in
``tests/property/test_streaming_oracle.py`` against random interleavings
of ``add``/``poll``/``flush``.
"""

from __future__ import annotations

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
    advances. ``feasible``/``drained`` track the scheduling lifecycle
    inside :class:`IncrementalMatcher`.
    """

    __slots__ = ("match", "last_anchor", "prev_lam", "feasible", "drained")

    def __init__(self, match: Optional[StructuralMatch] = None) -> None:
        self.match = match
        self.last_anchor: float = _NEG_INF
        self.prev_lam: Optional[float] = None
        self.feasible = False
        self.drained = False


def next_window_end(
    match: StructuralMatch, progress: MatchProgress, delta: float
) -> Optional[float]:
    """End of the earliest unprocessed window, or None when drained.

    This is the match's next finalization deadline: once the horizon
    passes it, :func:`sweep_closed_windows` has work to do.
    """
    first = match.series[0]
    idx = first.first_index_after(progress.last_anchor)
    if idx >= len(first.times):
        return None
    return first.times[idx] + delta


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
    three disjoint states:

    ``waiting``
        not yet feasible (no strictly time-respecting chain, or a series
        below φ); parked in ``_waiting[pair]`` for each of its pairs and
        rechecked only when one of those pairs receives an event.
        Feasibility is monotone under appends, so parking is safe.
    ``scheduled``
        feasible with at least one unprocessed anchor; a single entry
        ``(next window end, match index)`` lives in the min-heap.
    ``drained``
        feasible but every anchor processed; parked in ``_drained`` on
        the first-edge pair, woken by the next new anchor.

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
        self._drained: Dict[_Pair, List[int]] = {}
        self.matches_discovered = 0
        self.feasibility_checks = 0
        # Profiling counters (plain ints — an increment costs less than a
        # registry gate, so these stay on unconditionally and are lifted
        # into the metrics registry by StreamingDetector.metrics()):
        # anchored-P1 DFS expansion steps, watch/drained-table wakeups,
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
        ``prev_lam`` and rebuilds the deadline heap and drained table so
        the next :meth:`emit_closed` resumes instead of re-emitting.
        Matches absent from ``progress_by_key`` keep their fresh cursors.
        """
        self._heap = []
        self._drained = {}
        for idx, state in enumerate(self._states):
            saved = progress_by_key.get(match_key(state.match))
            if saved is not None:
                state.last_anchor, state.prev_lam = saved
            if state.feasible:
                state.drained = False
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
        drained = self._drained.pop(pair, None)
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
        if drained:
            self.watchlist_hits += len(drained)
            for idx in drained:
                state = self._states[idx]
                state.drained = False
                # Re-drains immediately when the new event's timestamp
                # ties the already-processed anchor (duplicate anchor).
                self._schedule(idx, state)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit_closed(
        self, horizon: float, sink: Callable[[MotifInstance], None]
    ) -> int:
        """Emit every instance whose window end is strictly below horizon.

        Pops matches in deadline order; each popped match sweeps *all* its
        closed windows in one go and is rescheduled at its next deadline
        (or drained). Deterministic: heap ties break on match index, i.e.
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
        if end is None:
            state.drained = True
            first = state.match.series[0]
            self._drained.setdefault((first.src, first.dst), []).append(idx)
        else:
            heappush(self._heap, (end, idx))
            self.heap_pushes += 1

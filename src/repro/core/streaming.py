"""Online (streaming) flow-motif detection.

The paper motivates flow motifs with Financial Intelligence Units watching
for suspicious transaction patterns — an inherently *online* task: alerts
should fire as soon as a pattern completes, not in a nightly batch. This
module provides a streaming detector with an exactly-once guarantee:

* interactions are fed in non-decreasing time order (:meth:`~StreamingDetector.add`);
* :meth:`~StreamingDetector.poll` emits every maximal instance whose
  δ-window has *closed* (window end strictly below the current watermark),
  each exactly once;
* :meth:`~StreamingDetector.flush` closes all remaining windows at end of
  stream (after which the stream cannot be extended).

The union of all emissions equals the offline
:func:`repro.core.enumeration.find_instances` output on the full stream
(property-tested in ``tests/property/test_streaming_oracle.py``).
Correctness rests on two facts about Algorithm 1:

1. an instance anchored at window ``[a, a + δ]`` uses only events with
   timestamp ≤ ``a + δ``, so it is fully determined once the watermark
   passes the window end;
2. its *maximality* additionally depends only on events ≤ ``a + δ`` (any
   later event would violate δ), plus the skip-rule comparison with the
   previous anchor — which is also historical. Per (match, anchor) windows
   are therefore finalizable in anchor order, tracking the last processed
   anchor and its last-edge frontier per structural match.

Complexity. The detector maintains everything per appended edge (see
:mod:`repro.core.incremental`): the growable time-series graph gains an
event on a known pair in O(1) amortized, and the first event of a new
pair in O(log degree) key comparisons plus one insert into each
endpoint's adjacency list; structural matches are extended only through
newly connected pairs (:func:`repro.core.matching.matches_through`, the
offline P1 DFS anchored at the new pair), and polls pop exactly the matches whose next
window deadline has passed — never the whole match set, and never a
rebuilt graph. ``benchmarks/bench_streaming_incremental.py`` measures
the win over re-running the offline search on the stream prefix at
every poll.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.core.incremental import IncrementalMatcher
from repro.core.instance import MotifInstance
from repro.core.motif import Motif
from repro.graph.events import Interaction, Node
from repro.graph.timeseries import GrowableTimeSeriesGraph


class StreamingDetector:
    """Exactly-once online detector for one flow motif.

    Parameters
    ----------
    motif:
        The flow motif (δ and φ are taken from it unless overridden). It
        must have a spanning path, which checkpoints serialize; a
        :class:`~repro.core.dag.GeneralMotif` raises :class:`TypeError`.
    delta, phi:
        Optional constraint overrides.
    slack:
        Bounded out-of-order tolerance. Events are admitted as long as
        they are no more than ``slack`` time units behind the watermark
        (the maximum timestamp observed); they wait in a reordering
        buffer and are released to the matcher in time order once the
        watermark has moved ``slack`` past them. The emission horizon is
        correspondingly held back to ``watermark - slack``, so the
        exactly-once guarantee and the offline-oracle equivalence are
        unchanged — windows only finalize once no admissible event can
        still land inside them. ``slack=0`` (default) is the strict
        time-ordered contract with zero buffering overhead.
    late:
        What to do with events older than ``watermark - slack``:
        ``"raise"`` (default) raises :class:`ValueError`; ``"drop"``
        discards the event, counts it in ``late_dropped``, and makes
        :meth:`add` return False.

    Example
    -------
    >>> from repro.core.motif import Motif
    >>> detector = StreamingDetector(Motif.chain(3, delta=10, phi=0))
    >>> detector.add("a", "b", time=1, flow=5)
    True
    >>> detector.add("b", "c", time=3, flow=4)
    True
    >>> detector.poll()            # window [1, 11] still open
    []
    >>> detector.add("x", "y", time=50, flow=1)
    True
    >>> [round(i.flow, 1) for i in detector.poll()]
    [4.0]
    """

    def __init__(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
        slack: float = 0.0,
        late: str = "raise",
    ) -> None:
        if motif.spanning_path is None:
            raise TypeError(f"streaming needs a path motif, not {motif!r}")
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack!r}")
        if late not in ("raise", "drop"):
            raise ValueError(f"late must be 'raise' or 'drop', got {late!r}")
        self.motif = motif
        self.delta = motif.delta if delta is None else delta
        self.phi = motif.phi if phi is None else phi
        self.slack = float(slack)
        self.late = late
        self._graph = GrowableTimeSeriesGraph()
        self._watermark = float("-inf")
        # Reordering buffer: a min-heap of (time, seq, src, dst, flow).
        # The arrival sequence number breaks timestamp ties, so events
        # with equal times are released in arrival order — exactly the
        # order a strictly time-sorted stream would have delivered them.
        self._pending: List[Tuple[float, int, Node, Node, float]] = []
        self._seq = 0
        self._late_dropped = 0
        self._emitted = 0
        self._flushed = False
        # Emissions land here before a poll/flush returns them: if an
        # exception (e.g. KeyboardInterrupt in a live CLI session) aborts
        # a poll mid-sweep, the already-finalized instances survive and
        # come out of the next poll()/flush() instead of being lost —
        # the progress cursors have already moved past their windows.
        self._out_buffer: List[MotifInstance] = []
        self._matcher = IncrementalMatcher(
            self._graph, motif, self.delta, self.phi
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, src: Node, dst: Node, time: float, flow: float) -> bool:
        """Ingest one interaction.

        With ``slack=0`` timestamps must be non-decreasing; with a
        positive slack an event may lag the watermark by up to ``slack``
        and is re-sequenced through the reordering buffer. Returns True
        when the event was admitted, False when it was older than the
        slack allows and the ``late="drop"`` policy discarded it.
        """
        if self._flushed:
            raise ValueError(
                "stream already flushed; flush() finalizes every window, "
                "so further adds would violate the exactly-once guarantee"
            )
        interaction = Interaction(src, dst, time, flow).validate()
        frontier = self._watermark - self.slack
        if interaction.time < frontier:
            if self.late == "drop":
                self._late_dropped += 1
                return False
            raise ValueError(
                f"out-of-order interaction at t={interaction.time} "
                f"(watermark {self._watermark}, slack {self.slack}); "
                f"the event is older than the reordering buffer can "
                f"re-sequence"
            )
        if self.slack == 0:
            # Fast path: an admissible event is already at or past the
            # watermark, so it can go straight to the matcher — the
            # buffer would release it immediately anyway.
            self._watermark = interaction.time
            self._matcher.add(src, dst, interaction.time, interaction.flow)
            return True
        heappush(
            self._pending,
            (interaction.time, self._seq, src, dst, interaction.flow),
        )
        self._seq += 1
        if interaction.time > self._watermark:
            self._watermark = interaction.time
        self._release(self._watermark - self.slack)
        return True

    def _release(self, frontier: float) -> None:
        """Drain buffered events with ``time <= frontier`` in time order.

        Release order is globally non-decreasing: an admitted event's
        timestamp is always >= the frontier at admission time, and the
        frontier only moves forward — so nothing admitted later can sort
        before an event already released.
        """
        pending = self._pending
        while pending and pending[0][0] <= frontier:
            time, _, src, dst, flow = heappop(pending)
            self._matcher.add(src, dst, time, flow)

    @property
    def watermark(self) -> float:
        """Largest interaction timestamp observed so far."""
        return self._watermark

    @property
    def pending_count(self) -> int:
        """Events waiting in the reordering buffer."""
        return len(self._pending)

    @property
    def late_dropped(self) -> int:
        """Events discarded by the ``late="drop"`` policy."""
        return self._late_dropped

    @property
    def emitted_count(self) -> int:
        """Total instances emitted so far."""
        return self._emitted

    @property
    def match_count(self) -> int:
        """Structural matches currently known to the detector."""
        return self._matcher.match_count

    @property
    def num_events(self) -> int:
        """Total interactions ingested."""
        return self._graph.num_events

    def metrics(self) -> "MetricsRegistry":
        """The detector's state as a fresh :class:`MetricsRegistry`.

        Built lazily from the plain-int counters the hot paths maintain
        unconditionally — constructing the registry costs nothing per
        event, and the result merges associatively with engine/worker
        registries into one report (shared ``stream.*`` / ``p1.*``
        namespace with the batch side).
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("stream.events").inc(self._graph.num_events)
        registry.counter("stream.emitted").inc(self._emitted)
        registry.counter("stream.late_dropped").inc(self._late_dropped)
        registry.gauge("stream.pairs").set(self._graph.num_series)
        registry.gauge("stream.matches").set(self.match_count)
        registry.gauge("stream.slack").set(self.slack)
        registry.gauge("stream.reorder_depth").set(len(self._pending))
        # Watermark lag: how far the oldest buffered event trails the
        # watermark — 0 when the reorder buffer is empty or slack is 0.
        lag = (
            self._watermark - self._pending[0][0] if self._pending else 0.0
        )
        registry.gauge("stream.watermark_lag").set(lag)
        matcher = self._matcher
        registry.gauge("stream.scheduled_matches").set(matcher.scheduled_count)
        registry.counter("p1.matches_discovered").inc(
            matcher.matches_discovered
        )
        registry.counter("p1.feasibility_checks").inc(
            matcher.feasibility_checks
        )
        registry.counter("p1.expansions").inc(matcher.expansions)
        registry.counter("p1.watchlist_hits").inc(matcher.watchlist_hits)
        registry.counter("stream.heap_pushes").inc(matcher.heap_pushes)
        registry.counter("stream.heap_pops").inc(matcher.heap_pops)
        return registry

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit_for_horizon(self, horizon: float) -> List[MotifInstance]:
        buffer = self._out_buffer
        if self._graph.num_events > 0:
            self._matcher.emit_closed(horizon, buffer.append)
        instances = list(buffer)
        buffer.clear()
        self._emitted += len(instances)
        return instances

    def poll(self) -> List[MotifInstance]:
        """Emit instances whose windows have provably closed.

        With ``slack=0`` the horizon is the watermark itself; with a
        positive slack it is held back to ``watermark - slack``, because
        an event inside that margin may still arrive and extend a window.
        Call after a batch of :meth:`add` calls.
        """
        return self._emit_for_horizon(self._watermark - self.slack)

    def flush(self) -> List[MotifInstance]:
        """End of stream: close and emit every remaining window.

        Drains the reordering buffer (no more events can arrive, so
        everything buffered is final), then finalizes windows whose end
        lies beyond the watermark — the stream is over and subsequent
        :meth:`add` calls raise. Calling flush (or poll) again is a
        harmless no-op.
        """
        self._release(float("inf"))
        result = self._emit_for_horizon(float("inf"))
        self._flushed = True
        return result

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot the full detector state as a JSON-safe dict.

        Captures the graph, the per-match skip-rule cursors, the
        reordering buffer, and any finalized-but-unreturned emissions —
        everything needed for :meth:`restore` to continue the stream as
        if it was never interrupted (round-trip equivalence with an
        uninterrupted run is property-tested against the offline oracle
        in ``tests/resilience/test_checkpoint.py``).
        """
        from repro.resilience.checkpoint import detector_state

        return detector_state(self)

    @classmethod
    def restore(cls, state: dict) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`checkpoint` snapshot."""
        from repro.resilience.checkpoint import restore_detector

        return restore_detector(state)

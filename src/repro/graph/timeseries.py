"""The time-series graph ``G_T`` and per-pair interaction series ``R(u, v)``.

Section 4 of the paper replaces the multigraph by a graph where all parallel
edges from ``u`` to ``v`` are merged into one edge annotated with the
time-ordered series ``R(u, v) = [(t1, f1), (t2, f2), ...]``. All motif-search
algorithms in :mod:`repro.core` operate on this view.

:class:`EdgeSeries` stores a series as two parallel, time-sorted arrays plus
a prefix-sum array of flows, so that

* locating window boundaries is ``O(log n)`` (binary search), and
* the aggregated flow of any contiguous run is ``O(1)``.

The backing arrays may be plain lists (this module) or zero-copy memoryview
slices over a flat :class:`~repro.graph.columnar.ColumnStore` buffer; every
accessor, as well as equality and hashing, is backend-agnostic, so the two
representations are interchangeable throughout :mod:`repro.core`.

Contiguous runs are all the algorithms ever need: a maximal motif instance
assigns to each motif edge *every* series element inside a time interval
(see :mod:`repro.core.enumeration`), which is a contiguous run of the series.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.graph.events import Interaction, Node


class EdgeSeries:
    """The interaction time series ``R(u, v)`` on one edge of ``G_T``.

    Parameters
    ----------
    src, dst:
        The vertex pair this series connects.
    times, flows:
        Parallel sequences of timestamps and positive flows. They are
        sorted by time on construction (stably, preserving the relative
        order of tied timestamps).
    """

    __slots__ = ("src", "dst", "times", "flows", "_cum")

    def __init__(
        self,
        src: Node,
        dst: Node,
        times: Sequence[float],
        flows: Sequence[float],
    ) -> None:
        if len(times) != len(flows):
            raise ValueError(
                f"times and flows must have equal length "
                f"({len(times)} != {len(flows)})"
            )
        if len(times) == 0:
            raise ValueError(f"edge series {src}->{dst} must not be empty")
        order = sorted(range(len(times)), key=lambda i: times[i])
        self.src = src
        self.dst = dst
        self.times: List[float] = [times[i] for i in order]
        self.flows: List[float] = [flows[i] for i in order]
        cum = [0.0] * (len(times) + 1)
        total = 0.0
        for i, f in enumerate(self.flows):
            if f <= 0:
                raise ValueError(
                    f"flows must be positive, got {f!r} on {src}->{dst}"
                )
            total += f
            cum[i + 1] = total
        self._cum = cum

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.flows))

    def __repr__(self) -> str:
        return (
            f"EdgeSeries({self.src!r}->{self.dst!r}, "
            f"{len(self)} events, total_flow={self.total_flow:.4g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSeries):
            return NotImplemented
        if (
            self.src != other.src
            or self.dst != other.dst
            or len(self.times) != len(other.times)
        ):
            return False
        if type(self.times) is list and type(other.times) is list:
            return self.times == other.times and self.flows == other.flows
        # Mixed backings: normalize, since memoryview == list is always
        # False even when the contents agree.
        return list(self.times) == list(other.times) and list(
            self.flows
        ) == list(other.flows)

    def __hash__(self) -> int:
        # tuple() normalizes the backing container, and hash(1) == hash(1.0)
        # keeps int-timed list series consistent with float columnar views.
        return hash((self.src, self.dst, tuple(self.times)))

    def time(self, index: int) -> float:
        """Timestamp of the ``index``-th element (0-based)."""
        return self.times[index]

    def flow(self, index: int) -> float:
        """Flow of the ``index``-th element (0-based)."""
        return self.flows[index]

    def item(self, index: int) -> Tuple[float, float]:
        """The ``(t, f)`` pair at ``index``."""
        return (self.times[index], self.flows[index])

    def items(self, lo: int, hi: int) -> List[Tuple[float, float]]:
        """The ``(t, f)`` pairs with index in the inclusive range [lo, hi]."""
        return list(zip(self.times[lo : hi + 1], self.flows[lo : hi + 1]))

    @property
    def total_flow(self) -> float:
        """Sum of all flows in the series.

        Computed as a prefix-sum difference so that zero-copy slices, whose
        ``_cum`` view starts at the parent's running total rather than 0,
        report the flow of the slice alone.
        """
        return self._cum[-1] - self._cum[0]

    @property
    def first_time(self) -> float:
        """Timestamp of the temporally first element."""
        return self.times[0]

    @property
    def last_time(self) -> float:
        """Timestamp of the temporally last element."""
        return self.times[-1]

    # ------------------------------------------------------------------
    # Binary-search accessors used by the window/enumeration machinery
    # ------------------------------------------------------------------

    def first_index_at_or_after(self, t: float) -> int:
        """Smallest index with ``times[i] >= t`` (== len when none)."""
        return bisect_left(self.times, t)

    def first_index_after(self, t: float) -> int:
        """Smallest index with ``times[i] > t`` (== len when none)."""
        return bisect_right(self.times, t)

    def last_index_at_or_before(self, t: float) -> int:
        """Largest index with ``times[i] <= t`` (== -1 when none)."""
        return bisect_right(self.times, t) - 1

    def flow_between(self, lo: int, hi: int) -> float:
        """Aggregated flow of elements with index in the inclusive [lo, hi].

        Returns 0.0 for an empty range (``hi < lo``). This is the paper's
        ``f(R_T(e))`` for the run of elements instantiating a motif edge.
        """
        if hi < lo:
            return 0.0
        return self._cum[hi + 1] - self._cum[lo]

    def flow_in_interval(self, start: float, end: float) -> float:
        """Aggregated flow of elements with ``start <= t <= end``."""
        lo = self.first_index_at_or_after(start)
        hi = self.last_index_at_or_before(end)
        return self.flow_between(lo, hi)

    def indices_in_interval(self, start: float, end: float) -> Tuple[int, int]:
        """Inclusive index range of elements with ``start <= t <= end``.

        Returns ``(lo, hi)`` with ``hi < lo`` when the interval is empty.
        """
        lo = self.first_index_at_or_after(start)
        hi = self.last_index_at_or_before(end)
        return lo, hi

    def slice(self, lo: int, hi: int) -> "EdgeSeries":
        """A new series holding the elements with index in ``[lo, hi]``.

        The base implementation copies into lists, also when called on a
        columnar view, so the result pickles and pins no shared buffer;
        columnar views override it with a zero-copy memoryview slice. Both
        keep the parent's prefix sums ``_cum[lo : hi + 2]`` rather than
        re-summing from 0, so every flow sum over the slice rounds exactly
        as it does in the parent.
        """
        part = EdgeSeries.__new__(EdgeSeries)
        part.src, part.dst = self.src, self.dst
        part.times = list(self.times[lo : hi + 1])
        part.flows = list(self.flows[lo : hi + 1])
        part._cum = list(self._cum[lo : hi + 2])
        return part

    # ------------------------------------------------------------------
    # Streaming growth
    # ------------------------------------------------------------------

    def append(self, time: float, flow: float) -> None:
        """Append one interaction — O(1) amortized.

        Streams feed events in non-decreasing time order, so an append
        never needs to re-sort: the new timestamp must be at or after the
        current last one (raises :class:`ValueError` otherwise, as it
        would for a non-positive flow). The prefix-sum array is extended
        in place, so all binary-search and flow accessors stay valid and
        any object holding a reference to this series (e.g. a cached
        structural match) sees the new element immediately.

        Zero-copy columnar views are immutable snapshots and refuse to
        append; use the list-backed series (or a
        :class:`~repro.graph.columnar.GrowableColumnStore`) for streams.
        """
        if flow <= 0:
            raise ValueError(
                f"flows must be positive, got {flow!r} on {self.src}->{self.dst}"
            )
        if time < self.times[-1]:
            raise ValueError(
                f"append out of order on {self.src}->{self.dst}: "
                f"t={time!r} precedes the series tail t={self.times[-1]!r}"
            )
        self.times.append(time)
        self.flows.append(flow)
        self._cum.append(self._cum[-1] + flow)


def _adjacency_key(series: EdgeSeries) -> Tuple[str, str]:
    """The key adjacency lists are sorted by."""
    return (repr(series.src), repr(series.dst))


class TimeSeriesGraph:
    """The time-series graph ``G_T(V, E_T)`` of Section 4.

    Vertices are those of the input multigraph; every connected ordered pair
    ``(u, v)`` carries exactly one :class:`EdgeSeries`. Provides the
    adjacency accessors required by structural matching (phase P1).
    """

    def __init__(self, series: Iterable[EdgeSeries]) -> None:
        self._by_pair: Dict[Tuple[Node, Node], EdgeSeries] = {}
        self._out: Dict[Node, List[EdgeSeries]] = {}
        self._in: Dict[Node, List[EdgeSeries]] = {}
        nodes: set = set()
        for s in series:
            key = (s.src, s.dst)
            if key in self._by_pair:
                raise ValueError(f"duplicate edge series for pair {key}")
            self._by_pair[key] = s
            nodes.add(s.src)
            nodes.add(s.dst)
            self._out.setdefault(s.src, []).append(s)
            self._in.setdefault(s.dst, []).append(s)
        # Deterministic iteration order helps seeded experiments reproduce.
        for adj in (self._out, self._in):
            for node in adj:
                adj[node].sort(key=_adjacency_key)
        self._node_set: set = nodes
        self._num_events: int = sum(len(s) for s in self._by_pair.values())
        # Views the hot paths ask for repeatedly, built on first read and
        # kept until the graph changes (None marks them stale): the frozen
        # vertex set and the (src, dst)-sorted series tuple.
        self._nodes: Optional[frozenset] = None
        self._all_series: Optional[Tuple[EdgeSeries, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "TimeSeriesGraph":
        """Group raw interactions by vertex pair into series (Figure 5)."""
        times: Dict[Tuple[Node, Node], List[float]] = {}
        flows: Dict[Tuple[Node, Node], List[float]] = {}
        for it in interactions:
            key = (it.src, it.dst)
            times.setdefault(key, []).append(it.time)
            flows.setdefault(key, []).append(it.flow)
        return cls(
            EdgeSeries(src, dst, times[(src, dst)], flows[(src, dst)])
            for (src, dst) in times
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        """The vertex set (vertices incident to at least one interaction).

        Returned frozen: callers cannot mutate the graph's internal state.
        """
        if self._nodes is None:
            self._nodes = frozenset(self._node_set)
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._node_set)

    @property
    def num_series(self) -> int:
        """Number of connected ordered pairs, i.e. ``|E_T|``."""
        return len(self._by_pair)

    @property
    def num_events(self) -> int:
        """Total number of interactions across all series, i.e. ``|E|``
        (cached at construction)."""
        return self._num_events

    def series(self, src: Node, dst: Node) -> Optional[EdgeSeries]:
        """The series ``R(src, dst)``, or None if the pair is not connected."""
        return self._by_pair.get((src, dst))

    def has_edge(self, src: Node, dst: Node) -> bool:
        """Whether at least one interaction goes from ``src`` to ``dst``."""
        return (src, dst) in self._by_pair

    def out_series(self, node: Node) -> List[EdgeSeries]:
        """All series leaving ``node`` (empty list for sinks/unknown nodes)."""
        return self._out.get(node, [])

    def in_series(self, node: Node) -> List[EdgeSeries]:
        """All series entering ``node``."""
        return self._in.get(node, [])

    def all_series(self) -> List[EdgeSeries]:
        """Every edge series, in deterministic (src, dst) order.

        The sort runs on the first call after the graph changes; later
        calls return a shallow copy of the cached tuple, so mutating the
        returned list cannot corrupt the graph's internal ordering.
        """
        if self._all_series is None:
            self._all_series = tuple(
                self._by_pair[k] for k in sorted(self._by_pair, key=repr)
            )
        return list(self._all_series)

    def __repr__(self) -> str:
        return (
            f"TimeSeriesGraph({self.num_nodes} nodes, "
            f"{self.num_series} series, {self.num_events} events)"
        )


class GrowableTimeSeriesGraph(TimeSeriesGraph):
    """A :class:`TimeSeriesGraph` that accepts per-event appends.

    Online consumers (the streaming detector) grow the graph one
    interaction at a time, with every ordering the base class defines
    kept exact:

    * appending to an **existing** pair is O(1) amortized — the event goes
      straight onto the pair's :class:`EdgeSeries` (whose identity never
      changes, so cached references stay live) and the event counter is
      bumped;
    * appending the first event of a **new** pair creates its series and
      inserts it into both endpoints' adjacency lists at the position the
      base class's sort would give it, found by bisection over cached sort
      keys — O(log degree) comparisons and one list insert. The cached
      vertex set and ``all_series()`` order are only marked stale; the
      next read rebuilds them.

    :meth:`append` returns whether the pair was new, which is exactly the
    signal the incremental structural-match index needs.
    """

    def __init__(self, series: Iterable[EdgeSeries] = ()) -> None:
        super().__init__(series)
        # Sort keys parallel to each adjacency list, so that a new pair
        # finds its slot without re-computing a repr per neighbour.
        self._out_keys: Dict[Node, List[Tuple[str, str]]] = {
            node: list(map(_adjacency_key, adj)) for node, adj in self._out.items()
        }
        self._in_keys: Dict[Node, List[Tuple[str, str]]] = {
            node: list(map(_adjacency_key, adj)) for node, adj in self._in.items()
        }

    def append(self, src: Node, dst: Node, time: float, flow: float) -> bool:
        """Ingest one interaction; returns True when ``(src, dst)`` is new.

        Per-pair timestamps must be non-decreasing (time-ordered streams
        guarantee this globally); violations raise :class:`ValueError`.
        """
        key = (src, dst)
        series = self._by_pair.get(key)
        if series is not None:
            series.append(time, flow)
            self._num_events += 1
            return False
        series = EdgeSeries(src, dst, [time], [flow])
        self._by_pair[key] = series
        self._num_events += 1
        sort_key = _adjacency_key(series)
        for node, adj, adj_keys in (
            (src, self._out, self._out_keys),
            (dst, self._in, self._in_keys),
        ):
            keys = adj_keys.setdefault(node, [])
            # After equal keys, before the first greater one: where the
            # base class's stable sort puts a later-inserted series.
            at = bisect_right(keys, sort_key)
            keys.insert(at, sort_key)
            adj.setdefault(node, []).insert(at, series)
        if src not in self._node_set or dst not in self._node_set:
            self._node_set.update(key)
            self._nodes = None
        self._all_series = None
        return True


"""δ-overlap time-range partitioning of a time-series graph.

The timeline is cut into ``k`` consecutive *core* ranges
``(-inf, b_1), [b_1, b_2), ..., [b_{k-1}, +inf)``; shard ``i`` receives
every event with timestamp in ``[b_i - halo, b_{i+1} + halo]`` — its core
plus a halo of width ``halo >= δ`` on both sides.

**Anchored-ownership rule.** Algorithm 1 anchors every emitted instance at
a window start equal to the instance's first (earliest) interaction, and
the whole instance fits in ``[a, a + δ]``. Shard ``i`` *owns* exactly the
instances whose anchor lies in its core range; the search restricts
enumeration to owned windows via the ``anchor_range`` parameter of
:func:`repro.core.enumeration.find_instances`.

Why a δ-halo on **both** sides makes sharded output exact:

* *content* — an owned window ``[a, a + δ]`` with ``a < b_{i+1}`` only
  touches events ``<= b_{i+1} + halo``: all present (right halo);
* *maximality / skip rule* — an owned instance anchored at ``a`` is
  non-maximal globally iff a first-series element exists in
  ``[Λ - δ, a)`` (it could join the first edge-set), where ``Λ <= a + δ``
  is the instance's last event. All such elements are ``>= a - δ >= b_i -
  halo``: present (left halo). The window iterator's skip rule compares
  the last-edge frontier ``Λ`` of a window against the maximum frontier of
  previously *considered* windows; frontiers of windows anchored before
  ``b_i - halo`` are ``< b_i <= Λ`` and can never flip a skip decision for
  an owned window, so iterating the left-halo windows (without enumerating
  them) reproduces the exact global skip state.

Shard series are contiguous index slices of the parent series, and
:class:`EdgeSeries` sorts stably, so a shard-local run ``[lo, hi]`` maps
back to the parent series as ``[lo + offset, hi + offset]`` — the merger
uses the recorded per-pair offsets to rebind instances onto the parent
graph (:mod:`repro.parallel.merge`).

Two materialization modes exist. ``materialize=True`` (default) slices the
parent series into per-shard copies. ``materialize=False`` produces *light*
shards (``graph=None``): only the cut bounds and rebinding offsets,
computed with bisects and no copying — what the parallel engine
partitions into. A zero-copy fan-out ships light-shard bounds plus a
shared-memory name; each worker slices its shard as zero-copy memoryview
views straight off the attached
:class:`~repro.graph.columnar.ColumnStore`'s series (:func:`slice_shard`).
An inline or pickled fan-out slices each light shard in the parent
(:func:`materialize_shard`). Both modes cut identically, so worker-side
slices line up exactly with the parent-side offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.graph.events import Node
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph

#: Pair key of one edge series: the (src, dst) vertex pair.
Pair = Tuple[Node, Node]


@dataclass
class TimeShard:
    """One shard of a δ-overlap time partition.

    Attributes
    ----------
    index, num_shards:
        Position of the shard and total shard count of its partition.
    core_start, core_end:
        The owned half-open anchor range ``[core_start, core_end)``;
        ``-inf`` / ``+inf`` on the outer shards, so ownership covers the
        whole timeline.
    halo:
        Overlap width (>= the search δ) applied on both sides of the core.
    graph:
        The sliced :class:`TimeSeriesGraph` holding every event in
        ``[core_start - halo, core_end + halo]`` — or ``None`` for a
        *light* shard, whose slice is re-materialized inside the worker
        from a shared-memory :class:`~repro.graph.columnar.ColumnStore`.
    offsets:
        Per (src, dst) pair, the parent-series index of the slice's first
        element — the rebinding map used by the merger.
    """

    index: int
    num_shards: int
    core_start: float
    core_end: float
    halo: float
    graph: Optional[TimeSeriesGraph]
    offsets: Dict[Pair, int] = field(default_factory=dict)

    @property
    def bounds(self) -> Tuple[int, int, float, float, float]:
        """The picklable payload a process worker needs to re-materialize
        this shard against an attached columnar store."""
        return (
            self.index,
            self.num_shards,
            self.core_start,
            self.core_end,
            self.halo,
        )

    @property
    def anchor_range(self) -> Tuple[float, float]:
        """The half-open ``[core_start, core_end)`` ownership interval."""
        return (self.core_start, self.core_end)

    @property
    def num_events(self) -> int:
        """Events in the shard (core plus halo) — the load-balance metric.

        0 for light shards, whose slice only exists inside the worker.
        """
        return self.graph.num_events if self.graph is not None else 0

    def owns_anchor(self, t: float) -> bool:
        """Whether an instance anchored at ``t`` belongs to this shard."""
        return self.core_start <= t < self.core_end

    def __repr__(self) -> str:
        payload = (
            f"{self.num_events} events" if self.graph is not None else "light"
        )
        return (
            f"TimeShard({self.index}/{self.num_shards}, "
            f"core=[{self.core_start:g}, {self.core_end:g}), {payload})"
        )


def _cut_points(times: List[float], num_shards: int) -> List[float]:
    """The strictly increasing interior boundaries ``b_1 < ... < b_{k-1}``,
    cut at event-count quantiles so shards carry similar load."""
    n = len(times)
    cuts: List[float] = []
    for i in range(1, num_shards):
        b = times[min(n - 1, (n * i) // num_shards)]
        if not cuts or b > cuts[-1]:
            cuts.append(b)
    return cuts


def _slice_all_series(
    all_series: Iterable[EdgeSeries],
    data_start: float,
    data_end: float,
    materialize: bool,
    zero_copy: bool = False,
) -> Tuple[List[EdgeSeries], Dict[Pair, int]]:
    """One shard's per-series cut: slices (when materializing) + offsets.

    The single source of truth for where a shard's slice begins — used by
    both :func:`partition_time_range` (parent side, records the rebinding
    offsets) and :func:`slice_shard` (worker side, produces the slices)
    so the two can never drift apart.

    ``zero_copy=True`` (worker side) dispatches to the series' own
    ``slice`` — memoryview views for columnar backings. The parent-side
    default forces list-backed copies even off a columnar graph, because
    materialized shards may be pickled (the fallback when shared memory
    is unavailable) and memoryviews cannot be.
    """
    sliced: List[EdgeSeries] = []
    offsets: Dict[Pair, int] = {}
    for series in all_series:
        lo, hi = series.indices_in_interval(data_start, data_end)
        if hi < lo:
            continue
        if materialize:
            sliced.append(
                series.slice(lo, hi)
                if zero_copy
                else EdgeSeries.slice(series, lo, hi)
            )
        offsets[(series.src, series.dst)] = lo
    return sliced, offsets


def partition_time_range(
    graph: Union[InteractionGraph, TimeSeriesGraph],
    num_shards: int,
    halo: float,
    sorted_times: Optional[List[float]] = None,
    materialize: bool = True,
) -> List[TimeShard]:
    """Split a graph into time shards with a ``halo``-sized overlap.

    Cores are cut at event-count quantiles of the whole timeline, so each
    shard owns about the same number of events. The anchored-ownership
    rule is exact for any cuts once the halo covers δ; the cut only
    decides how evenly the shards' work is spread.

    Parameters
    ----------
    graph:
        The interaction multigraph or its merged time-series view.
    num_shards:
        Requested shard count; fewer are returned when the graph has too
        few distinct timestamps to support that many non-empty cores.
    halo:
        Overlap width on both sides of each core; must be at least the δ
        of every search run against the partition (pass δ, or the maximum
        δ of a batch grid).
    sorted_times:
        Optional pre-sorted list of every event timestamp in ``graph``.
        The flattened sort is O(|E| log |E|) and independent of the halo,
        so callers partitioning the same graph repeatedly (δ-sweeps)
        should compute it once and pass it in.
    materialize:
        ``True`` (default) builds per-shard sliced copies of the series.
        ``False`` builds light shards (``graph=None``) carrying only
        bounds and rebinding offsets: a zero-copy fan-out ships those
        bounds and has each worker slice its own view of the shared
        columnar store.

    Returns
    -------
    list of :class:`TimeShard`
        Cores are pairwise disjoint and jointly cover ``(-inf, +inf)``;
        every event timestamp falls in exactly one core.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if halo < 0:
        raise ValueError(f"halo must be non-negative, got {halo!r}")
    ts = graph.to_time_series() if isinstance(graph, InteractionGraph) else graph
    if not isinstance(ts, TimeSeriesGraph):
        raise TypeError(
            "graph must be an InteractionGraph or TimeSeriesGraph, "
            f"got {type(graph).__name__}"
        )

    all_series = ts.all_series()
    times: List[float] = (
        sorted(t for series in all_series for t in series.times)
        if sorted_times is None
        else sorted_times
    )
    cuts = _cut_points(times, num_shards) if times else []
    bounds = [-math.inf] + cuts + [math.inf]
    shards: List[TimeShard] = []
    total = len(bounds) - 1
    for i in range(total):
        core_start, core_end = bounds[i], bounds[i + 1]
        sliced, offsets = _slice_all_series(
            all_series, core_start - halo, core_end + halo, materialize
        )
        shards.append(
            TimeShard(
                index=i,
                num_shards=total,
                core_start=core_start,
                core_end=core_end,
                halo=halo,
                graph=TimeSeriesGraph(sliced) if materialize else None,
                offsets=offsets,
            )
        )
    return shards


def materialize_shard(
    graph: TimeSeriesGraph,
    bounds: Tuple[int, int, float, float, float],
    zero_copy: bool = True,
) -> TimeShard:
    """Rebuild one shard's slice against an attached graph (worker side).

    ``bounds`` is :attr:`TimeShard.bounds`; ``graph`` is typically the
    columnar view of a shared-memory store, in which case every slice is
    a zero-copy memoryview over the shared buffers.

    ``zero_copy=False`` forces list-backed slices — what the engine uses
    when a light shard ends up on the inline/pickled path, where the
    result may have to pickle.
    """
    return slice_shard(graph.all_series(), bounds, zero_copy=zero_copy)


def slice_shard(
    all_series: Iterable[EdgeSeries],
    bounds: Tuple[int, int, float, float, float],
    zero_copy: bool = True,
) -> TimeShard:
    """The shard ``bounds`` cuts out of ``all_series``.

    Pool workers pass a store's :meth:`~repro.graph.columnar.ColumnStore.
    iter_series` here, so no whole-store :class:`TimeSeriesGraph` is
    built. The bisection is the same one :func:`partition_time_range`
    performs, so shard-local index ranges line up exactly with the
    parent-side rebinding offsets.
    """
    index, num_shards, core_start, core_end, halo = bounds
    sliced, offsets = _slice_all_series(
        all_series, core_start - halo, core_end + halo, True,
        zero_copy=zero_copy,
    )
    return TimeShard(
        index=index,
        num_shards=num_shards,
        core_start=core_start,
        core_end=core_end,
        halo=halo,
        graph=TimeSeriesGraph(sliced),
        offsets=offsets,
    )

"""Top-k flow motif search (Section 5).

Setting φ is unintuitive; the paper replaces it by a ranking: find the k
maximal instances (with φ = 0) satisfying δ that have the largest flow
``f(G_I)``. The search reuses the Algorithm 1 recursion with two changes:

* a size-k min-heap holds the best instances found so far;
* in place of φ, the flow of the current k-th best instance acts as a
  *floating threshold*: a prefix whose aggregated flow cannot exceed it is
  pruned (the instance flow is the minimum over edge-sets, so the partial
  minimum is an upper bound on any completion's flow).

The recursion is a depth-first search over the same branch step as
enumeration and counting (:func:`repro.core.enumeration.window_branches`),
called with φ = 0: flows are positive, so every valid prefix is a branch and
the floating threshold does all the pruning.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.core.enumeration import window_branches
from repro.core.instance import MotifInstance, Run
from repro.core.matching import StructuralMatch
from repro.core.windows import Window, iter_maximal_windows
from repro.graph.timeseries import EdgeSeries


class TopKCollector:
    """Size-k min-heap of instances ordered by flow.

    ``threshold`` is the floating φ: the k-th best flow so far once the
    heap is full, else the static floor.
    """

    def __init__(self, k: int, floor: float = 0.0) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        self.floor = floor
        self._heap: List[Tuple[float, int, MotifInstance]] = []
        self._counter = 0

    @property
    def threshold(self) -> float:
        """Flows at or below this value cannot improve the collection."""
        if len(self._heap) == self.k:
            return self._heap[0][0]
        return self.floor

    @property
    def full(self) -> bool:
        return len(self._heap) == self.k

    def offer(self, instance: MotifInstance) -> None:
        """Consider one instance for the top-k collection."""
        flow = instance.flow
        if len(self._heap) < self.k:
            if flow >= self.floor:
                heapq.heappush(self._heap, (flow, self._counter, instance))
                self._counter += 1
        elif flow > self._heap[0][0]:
            heapq.heapreplace(self._heap, (flow, self._counter, instance))
            self._counter += 1

    def results(self) -> List[MotifInstance]:
        """The collected instances, best flow first."""
        return [
            item[2]
            for item in sorted(self._heap, key=lambda e: (-e[0], e[1]))
        ]

    def kth_flow(self) -> Optional[float]:
        """Flow of the worst retained instance (None while not full)."""
        if not self._heap:
            return None
        return self._heap[0][0]


def _search_window(
    series_list: Sequence[EdgeSeries],
    window: Window,
    match: StructuralMatch,
    collector: TopKCollector,
) -> None:
    """Algorithm 1 recursion with floating-threshold pruning on one window."""
    anchor, end = window
    last = len(series_list) - 1
    runs: List[Tuple[int, int]] = [(0, -1)] * (last + 1)

    def recurse(i: int, start: int, bound: float) -> None:
        for j, next_start, flow in window_branches(series_list, i, start, end, 0.0):
            bound_j = flow if flow < bound else bound
            if collector.full and bound_j <= collector.threshold:
                continue  # floating-threshold pruning
            runs[i] = (start, j)
            if i == last:
                collector.offer(
                    MotifInstance(
                        match.motif,
                        match.vertex_map,
                        tuple(
                            Run(series_list[e], lo, hi)
                            for e, (lo, hi) in enumerate(runs)
                        ),
                    )
                )
            else:
                recurse(i + 1, next_start, bound_j)

    try:
        recurse(0, bisect_left(series_list[0].times, anchor), float("inf"))
    finally:
        # recurse is a cycle the collector frees later: let it hold no
        # series, which may be views of a store closed in the meantime.
        del series_list, match, collector


def top_k_instances(
    matches: Sequence[StructuralMatch],
    k: int,
    delta: Optional[float] = None,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> List[MotifInstance]:
    """The k maximal instances with the largest flow, best first.

    Parameters
    ----------
    matches:
        Structural matches from phase P1 (all of one motif).
    k:
        How many instances to return (fewer if the graph has fewer).
    delta:
        Duration override; defaults to the motif's δ.
    anchor_range:
        Optional half-open ``[lo, hi)`` restriction on window anchors (the
        :mod:`repro.parallel` shard-ownership contract): only owned windows
        feed the collector, so halo-truncated windows can never displace a
        genuine instance from the top-k heap.
    """
    collector = TopKCollector(k)
    for match in matches:
        motif_delta = match.motif.delta if delta is None else delta
        series_list = match.series
        # Match-level pruning: the instance flow is bounded by the minimum
        # total series flow of the match; skip matches that cannot beat the
        # current k-th best.
        bound = min(s.total_flow for s in series_list)
        if collector.full and bound <= collector.threshold:
            continue
        for window in iter_maximal_windows(
            series_list[0], series_list[-1], motif_delta,
            anchor_range=anchor_range,
        ):
            _search_window(series_list, window, match, collector)
    return collector.results()


def kth_instance_flow(
    matches: Sequence[StructuralMatch],
    k: int,
    delta: Optional[float] = None,
) -> Optional[float]:
    """Flow of the k-th best instance (Figure 11's y-axis), or None if the
    graph has fewer than one instance."""
    results = top_k_instances(matches, k, delta=delta)
    if not results:
        return None
    # With fewer than k instances the worst found stands in for the k-th.
    return results[-1].flow

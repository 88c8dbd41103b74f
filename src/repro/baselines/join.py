"""The join-algorithm baseline (Section 6.2.1).

The paper's comparison method builds motif instances bottom-up:

1. For every edge ``(u, v)`` of the time-series graph, enumerate all
   contiguous interaction runs whose time extent is at most δ, producing
   quintuples ``(u, v, ts, te, f)``. (Runs are the only possible edge-sets
   of maximal instances, and runs with ``f < φ`` can never satisfy the
   per-edge flow constraint, so they are dropped here — the analogue of the
   paper keeping tables C1/C2 small.)
2. Sort the quintuples by start vertex (table C1) and end vertex (C2) and
   *merge-join* C2 with C1 on structural adjacency (``c2.v = c1.u`` — the
   paper prints ``c2.u = c1.v``, an apparent typo), keeping pairs that are
   strictly time-ordered and jointly span at most δ. These are the
   instances of all 2-edge sub-motifs.
3. Repeat: join the level-``i`` partial instances with the level-1 tuples
   of the next motif edge until all ``m`` edges are instantiated; enforce
   motif-vertex constraints (repeat/closure and injectivity) as soon as the
   corresponding positions are bound.
4. Finally, filter to maximal instances so the result set is identical to
   the two-phase algorithm's (asserted by tests).

The baseline's cost comes from materializing sub-motif instances that never
extend to full instances — exactly the behaviour Figure 8 measures.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.instance import MotifInstance, Run, filter_maximal
from repro.core.motif import Motif
from repro.graph.events import Node
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph


class IntervalTuple(NamedTuple):
    """One quintuple ``(u, v, ts, te, f)`` plus its series index range."""

    src: Node
    dst: Node
    ts: float
    te: float
    flow: float
    series: EdgeSeries
    lo: int
    hi: int


class _Partial(NamedTuple):
    """A sub-motif instance: runs for motif edges ``0..level`` plus the
    graph vertices bound to motif vertex ids so far."""

    runs: Tuple[IntervalTuple, ...]
    assignment: Tuple[Tuple[int, Node], ...]  # sorted (motif vid, node)
    start: float  # earliest timestamp used
    end: float  # latest timestamp used


def build_interval_tuples(
    graph: TimeSeriesGraph, delta: float, phi: float
) -> List[IntervalTuple]:
    """Step 1: all contiguous runs with extent <= δ and flow >= φ."""
    tuples: List[IntervalTuple] = []
    for series in graph.all_series():
        times = series.times
        n = len(times)
        for lo in range(n):
            # Tied timestamps below lo would be forcibly addable; such runs
            # can never be edge-sets of maximal instances, skip them early.
            if lo > 0 and times[lo - 1] == times[lo]:
                continue
            for hi in range(lo, n):
                if times[hi] - times[lo] > delta:
                    break
                if hi + 1 < n and times[hi + 1] == times[hi]:
                    continue  # must take the whole tie group
                flow = series.flow_between(lo, hi)
                if flow < phi:
                    continue
                tuples.append(
                    IntervalTuple(
                        series.src,
                        series.dst,
                        times[lo],
                        times[hi],
                        flow,
                        series,
                        lo,
                        hi,
                    )
                )
    return tuples


def _merge_assignment(
    assignment: Tuple[Tuple[int, Node], ...],
    vid: int,
    node: Node,
) -> Optional[Tuple[Tuple[int, Node], ...]]:
    """Bind motif vertex ``vid`` to ``node``; None on conflict.

    Conflicts are either the vid already bound to another node (path
    revisit mismatch) or the node already bound to another vid
    (injectivity).
    """
    for bound_vid, bound_node in assignment:
        if bound_vid == vid:
            return assignment if bound_node == node else None
        if bound_node == node:
            return None
    return tuple(sorted(assignment + ((vid, node),)))


def join_find_instances(
    graph: TimeSeriesGraph,
    motif: Motif,
    delta: Optional[float] = None,
    phi: Optional[float] = None,
) -> List[MotifInstance]:
    """Find all maximal instances with the join algorithm.

    Produces exactly the same instance set as the two-phase algorithm
    (Section 4), at the higher cost the paper attributes to intermediate
    sub-motif materialization. Path motifs only: the joins follow the
    spanning path, so a motif without one raises :class:`TypeError`.
    """
    path = motif.spanning_path
    if path is None:
        raise TypeError(f"the join baseline needs a path motif, not {motif!r}")
    delta = motif.delta if delta is None else delta
    phi = motif.phi if phi is None else phi
    m = motif.num_edges

    level1 = build_interval_tuples(graph, delta, phi)
    # Table C1: tuples grouped by start vertex for the merge joins.
    by_src: Dict[Node, List[IntervalTuple]] = {}
    for tup in sorted(level1, key=lambda t: (repr(t.src), t.ts)):
        by_src.setdefault(tup.src, []).append(tup)

    # Seed partials from motif edge 1.
    partials: List[_Partial] = []
    for tup in level1:
        assignment = _merge_assignment((), path[0], tup.src)
        if assignment is None:
            continue
        assignment = _merge_assignment(assignment, path[1], tup.dst)
        if assignment is None:
            continue
        partials.append(_Partial((tup,), assignment, tup.ts, tup.te))

    # Join one motif edge per level.
    for level in range(1, m):
        vid_from, vid_to = path[level], path[level + 1]
        next_partials: List[_Partial] = []
        for partial in partials:
            bound = dict(partial.assignment)
            source_node = bound[vid_from]
            previous = partial.runs[-1]
            for tup in by_src.get(source_node, ()):
                if not previous.te < tup.ts:
                    continue  # strict inter-edge-set temporal order
                if tup.te - partial.start > delta:
                    continue  # joint duration
                assignment = _merge_assignment(
                    partial.assignment, vid_to, tup.dst
                )
                if assignment is None:
                    continue
                next_partials.append(
                    _Partial(
                        partial.runs + (tup,),
                        assignment,
                        partial.start,
                        max(partial.end, tup.te),
                    )
                )
        partials = next_partials

    instances = []
    for partial in partials:
        vertex_map = tuple(
            dict(partial.assignment)[vid] for vid in range(motif.num_vertices)
        )
        runs = tuple(
            Run(tup.series, tup.lo, tup.hi) for tup in partial.runs
        )
        instances.append(MotifInstance(motif, vertex_map, runs))
    return filter_maximal(instances, delta)

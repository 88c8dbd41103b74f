"""Phase P1: structural matches of a motif (Section 4).

A structural match maps motif vertices injectively onto graph vertices such
that every motif edge has a corresponding edge (series) in the time-series
graph — temporal and flow information is disregarded, exactly as in the
paper's phase P1.

The matcher is the paper's "modified depth-first search" over the motif
edges in label order. For a path motif every edge leaves the vertex the
previous one entered, so the matches are exactly the walks of length
``m`` in ``G_T`` whose vertex-repetition pattern equals the spanning
path's pattern (same position pairs coincide, all other positions are
pairwise distinct — the bijection requirement of Definition 3.2). A
fork/join motif (:class:`~repro.core.dag.GeneralMotif`) runs the same
DFS; an edge may then also be entered from its bound target, or from
every series when neither endpoint is bound yet.

One extension step (:func:`_extension_step`) runs that DFS for every
caller: :func:`iter_structural_matches` roots it at each start vertex, and
:func:`matches_through` anchors it at one new pair, which is how the
streaming detector discovers the matches an appended pair creates.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.motif import Motif
from repro.graph.events import Node
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph


class StructuralMatch:
    """One structural match ``G_s`` of a motif in ``G_T``.

    Attributes
    ----------
    motif:
        The matched motif.
    vertex_map:
        Graph vertex per normalized motif vertex id ``0..n-1``.
    series:
        Per motif edge (label order), the :class:`EdgeSeries` of the matched
        vertex pair — the ``R(e_i)`` of the paper.
    """

    __slots__ = ("motif", "vertex_map", "series")

    def __init__(
        self,
        motif: Motif,
        vertex_map: Tuple[Node, ...],
        series: Tuple[EdgeSeries, ...],
    ) -> None:
        self.motif = motif
        self.vertex_map = vertex_map
        self.series = series

    @property
    def walk(self) -> Tuple[Node, ...]:
        """The matched walk in ``G_T`` (graph vertex per path position);
        path motifs only."""
        path = self.motif.spanning_path
        if path is None:
            raise TypeError(f"{self.motif.display_name} has no spanning path")
        return tuple(self.vertex_map[v] for v in path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructuralMatch):
            return NotImplemented
        return (
            self.motif.edges == other.motif.edges
            and self.vertex_map == other.vertex_map
        )

    def __hash__(self) -> int:
        return hash((self.motif.edges, self.vertex_map))

    def __repr__(self) -> str:
        return f"StructuralMatch({self.motif.display_name}, {self.vertex_map!r})"


#: How one DFS step fills its motif edge ``(a, b)``: from bound ``a`` to
#: a free ``b``, back from bound ``b`` to a free ``a``, by lookup, or
#: from every series when both ends are free (fork/join motifs only).
_FORWARD, _BACKWARD, _LOOKUP, _SCAN = range(4)


@lru_cache(maxsize=1024)
def _plan(
    edges: Tuple[Tuple[int, int], ...], anchor_pos: int
) -> Tuple[Tuple, ...]:
    """The fill order of label-ordered ``edges`` as ``(q, kind, a, b)``
    steps: edges ``0..m-1`` from the source of edge 0 when
    ``anchor_pos == -1``, else from the pre-bound edge ``anchor_pos``
    back to edge 0, then on to edge ``m-1``. A path motif's root plan
    has only forward and lookup steps."""
    m = len(edges)
    if anchor_pos < 0:
        bound, order = {edges[0][0]}, list(range(m))
    else:
        bound = set(edges[anchor_pos])
        order = [*range(anchor_pos - 1, -1, -1), *range(anchor_pos + 1, m)]
    steps = []
    for q in order:
        a, b = edges[q]
        if a in bound:
            kind = _LOOKUP if b in bound else _FORWARD
        else:
            kind = _BACKWARD if b in bound else _SCAN
        bound.update((a, b))
        steps.append((q, kind, a, b))
    return tuple(steps)


def _extension_step(
    graph: TimeSeriesGraph,
    motif: Motif,
    emit: Callable[[StructuralMatch], None],
    admit: Optional[Callable[[int, EdgeSeries], bool]] = None,
) -> Tuple[Callable[..., int], Callable[[], None]]:
    """The one P1 DFS, as ``run(root)`` or ``run(anchor, anchor_pos)``,
    and the ``release()`` that ends it.

    ``run(root)`` binds the source of motif edge 0 to graph vertex
    ``root``; ``run(anchor, anchor_pos)`` binds motif edge ``anchor_pos``
    to the ``anchor`` series. Every call sets its own mode, so one closure
    may serve both. Each :func:`_plan` step then looks its series up, or
    tries every out-series (forward) or in-series (backward) of the bound
    endpoint whose other end is unbound, or every series whose ends are
    both unbound (scan) — Definition 3.2's bijection; a motif self-loop
    takes only graph self-loops. ``admit(q, series)`` may veto a series
    for edge ``q``. Complete matches go to ``emit``. Edges before
    ``anchor_pos`` may not reuse the anchor, so a match through it at
    several positions comes once, at the first (only a lookup can meet
    it: both its endpoints are bound). ``run`` returns the number of DFS
    nodes it expanded. The recursive ``fill``/``scan`` closures are a
    reference cycle, which only the cyclic collector frees: a walk calls
    ``release()`` when it is done, which drops everything the cycle holds
    of the graph and of the matches, so a store whose views it walked can
    be closed at once.
    """
    edges = motif.edges
    vertex_map: List[Optional[Node]] = [None] * motif.num_vertices
    chosen: List[Optional[EdgeSeries]] = [None] * motif.num_edges
    used: Set[Node] = set()
    steps: Tuple[Tuple, ...] = ()
    last = 0
    anchor: Optional[EdgeSeries] = None
    anchor_pos = -1
    lookup, out_series, in_series = graph.series, graph.out_series, graph.in_series
    all_series = graph.all_series

    def fill(k: int) -> int:
        if k == last:
            emit(StructuralMatch(motif, tuple(vertex_map), tuple(chosen)))
            return 1
        q, kind, a, b = steps[k]
        expanded = 1
        if kind == _LOOKUP:
            series = lookup(vertex_map[a], vertex_map[b])
            if (
                series is not None
                and not (q < anchor_pos and series is anchor)
                and (admit is None or admit(q, series))
            ):
                chosen[q] = series
                expanded += fill(k + 1)
        else:
            forward = kind == _FORWARD
            if forward:
                pool = out_series(vertex_map[a])
            elif kind == _BACKWARD:
                pool = in_series(vertex_map[b])
            else:
                return expanded + scan(k, q, a, b)
            free = b if forward else a
            for series in pool:
                vertex = series.dst if forward else series.src
                if vertex in used or (admit is not None and not admit(q, series)):
                    continue
                vertex_map[free] = vertex
                used.add(vertex)
                chosen[q] = series
                expanded += fill(k + 1)
                used.discard(vertex)
        return expanded

    def scan(k: int, q: int, a: int, b: int) -> int:
        expanded = 0
        for series in all_series():
            src, dst = series.src, series.dst
            if (
                (src == dst) != (a == b)
                or src in used
                or dst in used
                or (admit is not None and not admit(q, series))
            ):
                continue
            vertex_map[a], vertex_map[b] = src, dst
            used.update((src, dst))
            chosen[q] = series
            expanded += fill(k + 1)
            used.difference_update((src, dst))
        return expanded

    def run(seed, pos: int = -1) -> int:
        nonlocal steps, last, anchor, anchor_pos
        steps = _plan(edges, pos)
        last = len(steps)
        used.clear()
        if pos < 0:
            anchor, anchor_pos = None, -1
            vertex_map[edges[0][0]] = seed
            used.add(seed)
        else:
            anchor, anchor_pos = seed, pos
            vertex_map[edges[pos][0]] = seed.src
            vertex_map[edges[pos][1]] = seed.dst
            used.update((seed.src, seed.dst))
            chosen[pos] = seed
        return fill(0)

    def release() -> None:
        nonlocal lookup, out_series, in_series, all_series, anchor, emit
        lookup = out_series = in_series = all_series = anchor = emit = None
        chosen[:] = [None] * len(chosen)

    return run, release


def iter_structural_matches(
    graph: TimeSeriesGraph,
    motif: Motif,
    phi: float = 0.0,
    temporal_pruning: bool = False,
) -> Iterator[StructuralMatch]:
    """Yield all structural matches of ``motif`` in ``graph`` (phase P1).

    Matches are produced in deterministic order (sorted start vertex, then
    sorted extension), so runs are reproducible across processes: the
    :func:`_extension_step` DFS runs once from each start vertex.

    Parameters
    ----------
    phi, temporal_pruning:
        Optional pruning: with ``temporal_pruning=True`` a branch is cut
        when its series cannot host a strictly time-respecting chain
        (greedy earliest walk dies) and, with ``phi > 0``, when a chosen
        series' total flow is below φ. Pruned branches cannot contribute
        any instance, so downstream enumeration output is unchanged — but
        the *match set* is a subset of the unpruned one, and one pruned at
        φ′ serves every φ ≥ φ′ (:class:`MatchCache`). Keep both defaults
        for the paper's pure phase P1 (Table 4 semantics).
    """
    # chain_time[q]: earliest end of a time-respecting chain over the
    # series chosen for edges 0..q (greedy; only with temporal_pruning).
    chain_time: List[float] = [0.0] * motif.num_edges

    def admit(q: int, series: EdgeSeries) -> bool:
        # total_flow and first_index_after, inlined: one call per candidate.
        cum = series._cum
        if phi > 0 and cum[-1] - cum[0] < phi:
            return False
        if not temporal_pruning:
            return True
        times = series.times
        if q == 0:
            chain_time[0] = times[0]
            return True
        idx = bisect_right(times, chain_time[q - 1])
        if idx >= len(times):
            return False
        chain_time[q] = times[idx]
        return True

    found: List[StructuralMatch] = []
    pruned = temporal_pruning or phi > 0
    run, release = _extension_step(
        graph, motif, found.append, admit if pruned else None
    )
    try:
        for start in sorted(graph.nodes, key=repr):
            run(start)
            if found:
                yield from found
                found.clear()
    finally:
        release()


class MatchCache:
    """One temporally pruned P1 match list per motif shape (label-ordered
    ``edges``) and the φ′ it was pruned at, which serves every φ ≥ φ′: a
    series with ``total_flow < φ′`` has every edge-set below φ too, as
    prefix sums round monotonically. A lower φ rebuilds the list at that
    φ, dropping the old one first, so one list per shape is alive."""

    def __init__(self, graph: TimeSeriesGraph) -> None:
        self._graph = graph
        self._sets: Dict[Tuple, Tuple[float, List[StructuralMatch]]] = {}

    def matches(self, motif: Motif, phi: float = 0.0) -> List[StructuralMatch]:
        """The pruned matches at some φ′ ≤ ``phi``, bound to ``motif``."""
        key = motif.edges
        entry = self._sets.get(key)
        if entry is None or entry[0] > phi:
            del entry  # one list per shape: the stale one goes first
            self._sets.pop(key, None)
            found = iter_structural_matches(
                self._graph, motif, phi=phi, temporal_pruning=True
            )
            entry = self._sets[key] = (phi, list(found))
        cached = entry[1]
        if cached and cached[0].motif is not motif:
            return [
                StructuralMatch(motif, m.vertex_map, m.series) for m in cached
            ]
        return list(cached)


def matches_through(
    graph: TimeSeriesGraph, motif: Motif, series: EdgeSeries
) -> Tuple[List[StructuralMatch], int]:
    """All structural matches whose edge mapping uses ``series``.

    The :func:`_extension_step` DFS is anchored at every motif-edge
    position the pair could instantiate, so the cost is proportional to
    the matches through the pair, not to the graph. A match using
    ``series`` at several positions is produced exactly once, at the
    *first*. Returns the matches in discovery order and the number of DFS
    nodes expanded.
    """
    found: List[StructuralMatch] = []
    run, release = _extension_step(graph, motif, found.append)
    expanded = 0
    try:
        for p, (a, b) in enumerate(motif.edges):
            # A motif self-loop needs a graph self-loop, and two motif
            # vertices cannot share a graph vertex.
            if (a == b) == (series.src == series.dst):
                expanded += run(series, p)
    finally:
        release()
    return found, expanded


def find_structural_matches(
    graph: TimeSeriesGraph, motif: Motif
) -> List[StructuralMatch]:
    """All structural matches as a list (the paper's set ``S``)."""
    return list(iter_structural_matches(graph, motif))

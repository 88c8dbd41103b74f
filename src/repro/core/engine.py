"""The :class:`FlowMotifEngine` facade — the library's main entry point.

Wraps the two-phase algorithm of Section 4 (and its Section 5 variants)
behind one object bound to an interaction graph:

>>> from repro import InteractionGraph, Motif, FlowMotifEngine
>>> g = InteractionGraph.from_tuples([
...     ("a", "b", 1.0, 5.0), ("b", "c", 2.0, 4.0), ("b", "c", 3.0, 2.0),
... ])
>>> engine = FlowMotifEngine(g)
>>> result = engine.find_instances(Motif.chain(3, delta=10, phi=3))
>>> result.count
1
>>> round(result.instances[0].flow, 1)
5.0

Phase timings are recorded the way the paper reports them: phase P1
(structural matching, independent of δ/φ — Table 4) and phase P2 (instance
search — Figures 8–10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core import counting as _counting
from repro.core import dp as _dp
from repro.core import enumeration as _enumeration
from repro.core import topk as _topk
from repro.core.instance import MotifInstance
from repro.core.matching import (
    StructuralMatch,
    find_structural_matches,
    iter_structural_matches,
)
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.utils.timing import ShardTimingReport


@dataclass
class SearchResult:
    """Outcome of a full two-phase instance search.

    Attributes
    ----------
    motif:
        The searched motif.
    instances:
        The maximal instances found (empty when ``collect=False``).
    count:
        Number of instances found (also set when not collecting).
    num_matches:
        Number of phase-P1 structural matches (Table 4's "Instances").
        Parallel runs report the sum of per-shard feasible match counts,
        which can differ from the serial count (a match whose events span
        several shards is examined by each of them).
    p1_seconds, p2_seconds:
        Wall-clock time of the two phases. Parallel runs report aggregate
        *work* (the sum over shards); the elapsed critical path lives in
        ``shard_timings``.
    shard_timings:
        Per-shard breakdown of a parallel run (None for serial searches);
        see :class:`repro.utils.timing.ShardTimingReport`.
    """

    motif: Motif
    instances: List[MotifInstance] = field(default_factory=list)
    count: int = 0
    num_matches: int = 0
    p1_seconds: float = 0.0
    p2_seconds: float = 0.0
    shard_timings: Optional[ShardTimingReport] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end search time (P1 + P2)."""
        return self.p1_seconds + self.p2_seconds

    def flows(self) -> List[float]:
        """Instance flows, descending (useful for quick inspection)."""
        return sorted((inst.flow for inst in self.instances), reverse=True)


class FlowMotifEngine:
    """Two-phase flow-motif search over one interaction network.

    Parameters
    ----------
    graph:
        Either the raw :class:`InteractionGraph` multigraph or an already
        merged :class:`TimeSeriesGraph`.

    Notes
    -----
    Structural matches are cached per motif *shape* (spanning path), since
    they do not depend on δ/φ; repeated searches with different constraints
    (the Figure 9/10 sweeps) pay phase P1 once.
    """

    def __init__(self, graph: Union[InteractionGraph, TimeSeriesGraph]) -> None:
        if isinstance(graph, InteractionGraph):
            self._ts = graph.to_time_series()
        elif isinstance(graph, TimeSeriesGraph):
            self._ts = graph
        else:
            raise TypeError(
                "graph must be an InteractionGraph or TimeSeriesGraph, "
                f"got {type(graph).__name__}"
            )
        self._match_cache: dict = {}

    @property
    def time_series_graph(self) -> TimeSeriesGraph:
        """The underlying merged graph ``G_T``."""
        return self._ts

    # ------------------------------------------------------------------
    # Phase P1
    # ------------------------------------------------------------------

    def structural_matches(
        self, motif: Motif, use_cache: bool = True
    ) -> List[StructuralMatch]:
        """All structural matches of the motif (phase P1, Table 4)."""
        key = motif.spanning_path
        if use_cache and key in self._match_cache:
            cached = self._match_cache[key]
            return [
                StructuralMatch(motif, m.vertex_map, m.series) for m in cached
            ]
        matches = find_structural_matches(self._ts, motif)
        if use_cache:
            self._match_cache[key] = matches
        return matches

    def clear_cache(self) -> None:
        """Drop cached structural matches (e.g. after graph changes)."""
        self._match_cache.clear()

    def parallel(
        self,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        backend: str = "process",
        use_shared_memory: bool = True,
    ):
        """A :class:`~repro.parallel.ParallelFlowMotifEngine` over the same
        graph — δ-overlap time-sharded search fanned out over ``jobs``
        workers (see :mod:`repro.parallel`). ``use_shared_memory=False``
        disables the process backend's zero-copy columnar transport.

        >>> g = InteractionGraph.from_tuples([("a", "b", 1.0, 5.0),
        ...                                   ("b", "c", 2.0, 4.0)])
        >>> engine = FlowMotifEngine(g)
        >>> pengine = engine.parallel(jobs=1)
        >>> pengine.find_instances(Motif.chain(3, delta=10, phi=0)).count
        1
        """
        from repro.parallel.engine import ParallelFlowMotifEngine

        return ParallelFlowMotifEngine(
            self._ts,
            jobs=jobs,
            shards=shards,
            backend=backend,
            use_shared_memory=use_shared_memory,
        )

    # ------------------------------------------------------------------
    # Phase P2 entry points
    # ------------------------------------------------------------------

    def find_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
        collect: bool = True,
        skip_rule: bool = True,
        prefix_pruning: bool = True,
        use_cache: bool = True,
    ) -> SearchResult:
        """Find all maximal instances of ``motif`` (Sections 4, Algorithm 1).

        Parameters
        ----------
        motif:
            The flow motif; its δ/φ apply unless overridden.
        delta, phi:
            Optional per-call constraint overrides.
        collect:
            When False, instances are counted but not retained (for large
            sweeps); ``result.count`` is still exact.
        skip_rule, prefix_pruning:
            Ablation switches (see :mod:`repro.core.enumeration`).

        Notes
        -----
        With ``use_cache=False`` the search runs *fused*: structural
        matches stream out of a flow/temporally-pruned DFS directly into
        phase P2, skipping matches that provably host no instance. The
        instance set is identical; ``num_matches`` then reports the pruned
        (feasible) match count and the whole time is accounted to
        ``p2_seconds``.
        """
        result = SearchResult(motif=motif)
        counter = [0]

        if collect:
            def sink(instance: MotifInstance) -> None:
                counter[0] += 1
                result.instances.append(instance)
        else:
            def sink(instance: MotifInstance) -> None:
                counter[0] += 1

        with _span(
            "query.find_instances", motif=str(motif), backend="serial"
        ):
            if use_cache:
                with _span("p1.match") as t1:
                    matches = self.structural_matches(motif, use_cache=True)
                result.num_matches = len(matches)
                result.p1_seconds = t1.elapsed
                with _span("p2.enumerate") as t2:
                    _enumeration.find_instances(
                        matches,
                        delta=delta,
                        phi=phi,
                        on_instance=sink,
                        skip_rule=skip_rule,
                        prefix_pruning=prefix_pruning,
                    )
                result.p2_seconds = t2.elapsed
            else:
                effective_phi = motif.phi if phi is None else phi
                with _span("p2.enumerate", fused=True) as t2:
                    for match in iter_structural_matches(
                        self._ts, motif, phi=effective_phi,
                        temporal_pruning=True
                    ):
                        result.num_matches += 1
                        _enumeration.find_instances_in_match(
                            match,
                            delta=delta,
                            phi=phi,
                            on_instance=sink,
                            skip_rule=skip_rule,
                            prefix_pruning=prefix_pruning,
                        )
                result.p2_seconds = t2.elapsed
        result.count = counter[0]
        reg = _metrics.active()
        if reg is not None:
            reg.counter("p1.matches").inc(result.num_matches)
            reg.counter("p2.instances").inc(result.count)
        return result

    def count_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
        use_cache: bool = True,
    ) -> SearchResult:
        """Count maximal instances without constructing them (memoized;
        the Section 7 future-work feature)."""
        result = SearchResult(motif=motif)
        with _span(
            "query.count_instances", motif=str(motif), backend="serial"
        ):
            with _span("p1.match") as t1:
                matches = self.structural_matches(motif, use_cache=use_cache)
            result.num_matches = len(matches)
            result.p1_seconds = t1.elapsed
            with _span("p2.count") as t2:
                result.count = _counting.count_instances(
                    matches, delta=delta, phi=phi
                )
            result.p2_seconds = t2.elapsed
        reg = _metrics.active()
        if reg is not None:
            reg.counter("p1.matches").inc(result.num_matches)
            reg.counter("p2.instances").inc(result.count)
        return result

    def top_k(
        self,
        motif: Motif,
        k: int,
        delta: Optional[float] = None,
        use_cache: bool = True,
    ) -> List[MotifInstance]:
        """The k maximal instances with the largest flow (Section 5)."""
        matches = self.structural_matches(motif, use_cache=use_cache)
        return _topk.top_k_instances(matches, k, delta=delta)

    def top_one_dp(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        method: str = "auto",
        use_cache: bool = True,
    ) -> _dp.TopOneResult:
        """The maximum-flow instance via the DP module (Section 5.1)."""
        matches = self.structural_matches(motif, use_cache=use_cache)
        return _dp.top_one_instance(matches, delta=delta, method=method)

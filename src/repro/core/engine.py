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
(structural matching) and phase P2 (instance search — Figures 8–10). The
engine's P1 also drops matches that cannot host a strictly time-respecting
chain or that hold a series below the query's φ; Table 4's pure match
count is :func:`repro.core.matching.find_structural_matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core import counting as _counting
from repro.core import dp as _dp
from repro.core import enumeration as _enumeration
from repro.core import topk as _topk
from repro.core.instance import MotifInstance
from repro.core.matching import MatchCache, StructuralMatch
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
        Number of phase-P1 structural matches P2 read: the engine's cached
        list, temporally pruned and pruned at some φ′ ≤ the query's φ (see
        :class:`~repro.core.matching.MatchCache`), not Table 4's pure count
        (:func:`~repro.core.matching.find_structural_matches`). Parallel
        runs report the sum of per-shard counts, which can differ from the
        serial count (a match whose events span several shards is examined
        by each of them).
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
    Every query reads one cached P1 list per motif *shape* (its
    label-ordered ``edges``, for path and fork/join motifs alike): a
    :class:`~repro.core.matching.MatchCache` of the structural matches
    that admit a strictly time-respecting chain, pruned at some φ′. Finds
    and counts ask at their effective φ, top-k and the DP at φ=0; a query
    below φ′ rebuilds the list at its own φ, so a sweep pays P1 per lower φ.
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
        self._matches = MatchCache(self._ts)

    @property
    def time_series_graph(self) -> TimeSeriesGraph:
        """The underlying merged graph ``G_T``."""
        return self._ts

    # ------------------------------------------------------------------
    # Phase P1
    # ------------------------------------------------------------------

    def structural_matches(self, motif: Motif) -> List[StructuralMatch]:
        """The motif's temporally feasible structural matches at φ=0 (phase
        P1), from the engine's match cache and bound to ``motif``. No match
        it drops hosts an instance; Table 4's pure set is
        :func:`~repro.core.matching.find_structural_matches`."""
        return self._matches.matches(motif)

    def clear_cache(self) -> None:
        """Drop cached structural matches (e.g. after graph changes)."""
        self._matches = MatchCache(self._ts)

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
    ) -> SearchResult:
        """Find all maximal instances of ``motif`` (Sections 4, Algorithm 1).

        Phase P1 is the engine's cached match list at the effective φ;
        phase P2 runs Algorithm 1 over each of its matches.

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
        """
        result = SearchResult(motif=motif)
        phi = motif.phi if phi is None else phi
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
            with _span("p1.match") as t1:
                matches = self._matches.matches(motif, phi)
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
    ) -> SearchResult:
        """Count maximal instances without constructing them (memoized;
        the Section 7 future-work feature), over the P1 list a find reads."""
        result = SearchResult(motif=motif)
        phi = motif.phi if phi is None else phi
        with _span(
            "query.count_instances", motif=str(motif), backend="serial"
        ):
            with _span("p1.match") as t1:
                matches = self._matches.matches(motif, phi)
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
        self, motif: Motif, k: int, delta: Optional[float] = None
    ) -> List[MotifInstance]:
        """The k maximal instances with the largest flow (Section 5),
        ranked over :meth:`structural_matches`."""
        return _topk.top_k_instances(
            self.structural_matches(motif), k, delta=delta
        )

    def top_one_dp(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        method: str = "auto",
    ) -> _dp.TopOneResult:
        """The maximum-flow instance via the DP module (Section 5.1), over
        :meth:`structural_matches`."""
        return _dp.top_one_instance(
            self.structural_matches(motif), delta=delta, method=method
        )

"""Multi-motif batch evaluation with cross-query phase-P1 sharing.

Table 4 of the paper observes that phase P1 (structural matching) is
independent of δ and φ; the Figure 9/10 sweeps therefore pay it once per
motif *shape* and vary only phase P2. :class:`BatchRunner` lifts that
saving to whole grids of ``(motif, δ, φ)`` configurations: configurations
whose motifs share a shape (label-ordered edges) form a *topology group* that computes
structural matches exactly once per shard. A one-shard run (``jobs=1``)
goes through the same shard kernel with a single shard covering the
whole timeline, so it shares P1 once globally and emits the same
``p1.match``/``p2.enumerate`` spans as a sharded run.

>>> from repro import InteractionGraph, Motif
>>> g = InteractionGraph.from_tuples([
...     ("a", "b", 1.0, 5.0), ("b", "c", 2.0, 4.0), ("b", "c", 3.0, 2.0),
... ])
>>> runner = BatchRunner(g, jobs=1)
>>> results = runner.run([
...     MotifConfig(Motif.chain(3, delta=10, phi=0)),
...     MotifConfig(Motif.chain(3, delta=10, phi=0), delta=0.5),
...     MotifConfig(Motif.chain(3, delta=10, phi=0), phi=100.0),
... ])
>>> [r.count for r in results]
[1, 0, 0]
>>> runner.last_stats["num_topology_groups"]
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import SearchResult
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.parallel import merge as _merge
from repro.parallel.costmodel import ShardCostModel
from repro.parallel.engine import ParallelFlowMotifEngine


@dataclass(frozen=True)
class MotifConfig:
    """One cell of a batch grid: a motif with optional δ/φ overrides.

    ``delta``/``phi`` default to the motif's own constraints, mirroring
    the per-call overrides of the engines.
    """

    motif: Motif
    delta: Optional[float] = None
    phi: Optional[float] = None

    @property
    def effective_delta(self) -> float:
        """The δ this configuration searches with."""
        return self.motif.delta if self.delta is None else self.delta

    @property
    def effective_phi(self) -> float:
        """The φ this configuration searches with."""
        return self.motif.phi if self.phi is None else self.phi


def _coerce_config(item: Union[MotifConfig, Motif, Tuple]) -> MotifConfig:
    """Accept MotifConfig, bare Motif, or (motif, delta, phi) tuples."""
    if isinstance(item, MotifConfig):
        return item
    if isinstance(item, Motif):
        return MotifConfig(item)
    if isinstance(item, tuple) and item and isinstance(item[0], Motif):
        motif = item[0]
        delta = item[1] if len(item) > 1 else None
        phi = item[2] if len(item) > 2 else None
        return MotifConfig(motif, delta, phi)
    raise TypeError(
        "batch configurations must be MotifConfig, Motif, or "
        f"(motif, delta[, phi]) tuples, got {type(item).__name__}"
    )


class BatchRunner:
    """Evaluate a grid of (motif, δ, φ) configurations over one graph.

    Parameters
    ----------
    graph:
        The interaction multigraph or its time-series view.
    jobs:
        Worker count. The timeline is partitioned once (halo = the
        grid's maximum δ) and each shard shares P1 across the whole
        grid. With one shard (the ``jobs=1`` default) that shard covers
        the whole timeline and runs in-process; ``jobs=1`` with an
        explicit ``shards`` runs every shard in-process (determinism
        testing, as in the engine).
    shards, backend:
        As in :class:`~repro.parallel.engine.ParallelFlowMotifEngine`,
        which the runner wraps: its worker pool and shared-memory export
        serve every :meth:`run` until :meth:`close` (or the end of a
        ``with BatchRunner(...) as runner:`` block).
    adaptive:
        Observability-driven adaptive sharding: the sharded path runs
        the grid in two waves — a probe wave (first configuration, on
        the default quantile partition) whose measured per-shard
        timings feed the :class:`~repro.parallel.costmodel.
        ShardCostModel`, then the remaining configurations on a
        cost-balanced re-cut of the timeline. Output stays
        multiset-identical to serial (the δ-halo ownership argument
        holds for any cuts); only wall-clock balance changes.
    cost_model:
        An explicit model to (re)use across runners — e.g. one warmed
        by earlier runs on the same graph. Implies ``adaptive``.

    Attributes
    ----------
    last_stats:
        Dict describing the previous :meth:`run`: configuration count,
        topology-group count, total P1/P2 seconds, wall time, shard
        imbalance, and — on adaptive runs — the probe-wave imbalance
        (``imbalance_before``), the adapted-wave imbalance
        (``imbalance_after``) and the model's prediction error.
    """

    def __init__(
        self,
        graph: Union[InteractionGraph, TimeSeriesGraph],
        jobs: int = 1,
        shards: Optional[int] = None,
        backend: str = "process",
        adaptive: bool = False,
        cost_model: Optional[ShardCostModel] = None,
    ) -> None:
        if adaptive and cost_model is None:
            cost_model = ShardCostModel()
        self.adaptive = cost_model is not None
        self.cost_model = cost_model
        # Compose the parallel engine: one source of truth for graph
        # coercion, backend validation, dispatch, and partition caching.
        self._engine = ParallelFlowMotifEngine(
            graph,
            jobs=jobs,
            shards=shards,
            backend=backend,
            cost_model=cost_model,
        )
        self._ts = self._engine.time_series_graph
        self.last_stats: Dict[str, float] = {}

    def close(self) -> None:
        """Shut the wrapped engine's worker pool down and release its
        export (:meth:`ParallelFlowMotifEngine.close`)."""
        self._engine.close()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def jobs(self) -> int:
        """Worker count (delegated to the underlying parallel engine)."""
        return self._engine.jobs

    @property
    def num_shards(self) -> int:
        """Shard count (delegated to the underlying parallel engine)."""
        return self._engine.num_shards

    @property
    def backend(self) -> str:
        """Execution backend (delegated to the underlying parallel engine)."""
        return self._engine.backend

    def run(
        self,
        configs: Sequence[Union[MotifConfig, Motif, Tuple]],
        collect: bool = True,
    ) -> List[SearchResult]:
        """Search every configuration; results align with ``configs``.

        With ``collect=False`` instances are counted but not materialized
        (the counts remain exact), which keeps huge grids memory-bound
        only by their result counts.
        """
        resolved = [_coerce_config(c) for c in configs]
        self._adaptive_stats: Dict[str, float] = {}
        if not resolved:
            self.last_stats = {
                "num_configs": 0,
                "num_topology_groups": 0,
                "p1_seconds": 0.0,
                "p2_seconds": 0.0,
                "wall_seconds": 0.0,
                "shard_imbalance_ratio": 1.0,
            }
            return []
        halo = max(c.effective_delta for c in resolved)
        with _tracing.span(
            "query.batch", configs=len(resolved), shards=self.num_shards
        ) as query:
            if self.adaptive and len(resolved) > 1 and self.num_shards > 1:
                results = self._run_adaptive(resolved, halo, collect)
            else:
                results = self._run_wave(resolved, halo, collect)
        wall = query.elapsed
        # The fan-out/merge wall time is shared by the whole grid; record
        # it on every config's report so efficiency charts have a
        # non-zero denominator.
        for result in results:
            result.shard_timings.wall_seconds = wall
        groups = {c.motif.edges for c in resolved}
        # Shard imbalance (max/mean shard wall time) of the batch: the
        # worst ratio across the grid (1.0 for a single shard).
        imbalance = max(r.shard_timings.imbalance_ratio for r in results)
        self.last_stats = {
            "num_configs": len(resolved),
            "num_topology_groups": len(groups),
            "p1_seconds": sum(r.p1_seconds for r in results),
            "p2_seconds": sum(r.p2_seconds for r in results),
            "wall_seconds": wall,
            "shard_imbalance_ratio": imbalance,
        }
        self.last_stats.update(self._adaptive_stats)
        return results

    # ------------------------------------------------------------------
    # One partition, whole grid per shard
    # ------------------------------------------------------------------

    def _run_wave(
        self, configs: Sequence[MotifConfig], halo: float, collect: bool
    ) -> List[SearchResult]:
        """Fan one sub-grid out over the current partition and merge.

        When a cost model is attached, every merged result's per-shard
        timings feed it — so the *next* wave (or run) partitions on
        fresher densities.
        """
        shards = self._engine.partition(halo)
        queries = [
            (c.motif, c.effective_delta, c.effective_phi) for c in configs
        ]
        per_config = self._engine._run_queries(
            shards, "batch", queries, collect=collect
        )
        results: List[SearchResult] = []
        with _tracing.span("parallel.merge"):
            for config, outputs in zip(configs, per_config):
                result = _merge.merge_search_results(
                    config.motif, shards, outputs, self._ts
                )
                self._engine._observe_costs(shards, result)
                results.append(result)
        return results

    def _run_adaptive(
        self, configs: Sequence[MotifConfig], halo: float, collect: bool
    ) -> List[SearchResult]:
        """Probe wave on quantile cuts, the rest on cost-balanced cuts.

        The first configuration runs on the default (event-quantile)
        partition purely to measure real per-shard seconds; its timings
        teach the cost model the timeline's density profile, and the
        remaining configurations re-partition at cost-weighted
        quantiles. Before/after imbalance and the model's
        predicted-vs-actual error are published as
        ``parallel.adaptive.*`` gauges and mirrored in ``last_stats``.
        """
        probe_results = self._run_wave(configs[:1], halo, collect)
        before = probe_results[0].shard_timings.imbalance_ratio
        rest_results = self._run_wave(configs[1:], halo, collect)
        after = max(r.shard_timings.imbalance_ratio for r in rest_results)
        model = self.cost_model
        error = model.mean_abs_rel_error if model is not None else 0.0
        self._adaptive_stats = {
            "imbalance_before": before,
            "imbalance_after": after,
            "prediction_error": error,
        }
        reg = _metrics.active()
        if reg is not None:
            reg.gauge("parallel.adaptive.imbalance_before").set(before)
            reg.gauge("parallel.adaptive.imbalance_after").set(after)
            reg.gauge("parallel.adaptive.prediction_error").set(error)
        return probe_results + rest_results

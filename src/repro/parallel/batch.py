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
from repro.obs import tracing as _tracing
from repro.parallel import merge as _merge
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
        grid. ``jobs=1`` (the default) runs every shard in this process;
        with the default single shard, that shard covers the whole
        timeline.
    shards:
        As in :class:`~repro.parallel.engine.ParallelFlowMotifEngine`,
        which the runner wraps: its worker pool and shared-memory export
        serve every :meth:`run` until :meth:`close` (or the end of a
        ``with BatchRunner(...) as runner:`` block).
    backend:
        ``"process"``, the only value, as in the engine.

    Attributes
    ----------
    last_stats:
        Dict describing the previous :meth:`run`: configuration count,
        topology-group count, total P1/P2 seconds, wall time and shard
        imbalance (``shard_imbalance_ratio``).
    """

    def __init__(
        self,
        graph: Union[InteractionGraph, TimeSeriesGraph],
        jobs: int = 1,
        shards: Optional[int] = None,
        backend: str = "process",
    ) -> None:
        # Compose the parallel engine: one source of truth for graph
        # coercion, argument validation, dispatch, and partition caching.
        self._engine = ParallelFlowMotifEngine(
            graph, jobs=jobs, shards=shards, backend=backend
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
            # One partition (halo = the grid's largest δ); every shard
            # runs the whole grid, sharing P1 per topology group.
            shards = self._engine.partition(halo)
            queries = [
                (c.motif, c.effective_delta, c.effective_phi)
                for c in resolved
            ]
            per_config = self._engine._run_queries(
                shards, "batch", queries, collect=collect
            )
            with _tracing.span("parallel.merge"):
                results = [
                    _merge.merge_search_results(
                        config.motif, shards, outputs, self._ts
                    )
                    for config, outputs in zip(resolved, per_config)
                ]
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
        return results

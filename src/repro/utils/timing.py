"""Per-shard timing reports of parallel searches.

Blocks are timed with :func:`repro.obs.tracing.span` handles (their
``elapsed``), the one clock every phase timing reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ShardTiming:
    """Wall-clock breakdown of one shard's search in a parallel run.

    Attributes
    ----------
    shard_index:
        Position of the shard in the time partition.
    p1_seconds, p2_seconds:
        Phase P1 (structural matching) / P2 (instance search) time spent
        inside the shard's worker.
    num_matches, num_instances:
        Work counters: structural matches examined and owned instances
        produced by the shard.
    """

    shard_index: int
    p1_seconds: float = 0.0
    p2_seconds: float = 0.0
    num_matches: int = 0
    num_instances: int = 0

    @property
    def total_seconds(self) -> float:
        """Shard wall-clock time (P1 + P2)."""
        return self.p1_seconds + self.p2_seconds


@dataclass
class ShardTimingReport:
    """Per-shard timing breakdown of one parallel search.

    The aggregates are what parallel-efficiency charts need
    (``benchmarks/bench_parallel_scaling.py``): the critical path is the
    slowest shard (``max_seconds``), the total work is ``sum_seconds``, and
    ``imbalance_ratio`` — max over mean — is 1.0 for a perfectly balanced
    partition and grows as stragglers dominate.

    Example
    -------
    >>> report = ShardTimingReport([
    ...     ShardTiming(0, p1_seconds=1.0, p2_seconds=1.0),
    ...     ShardTiming(1, p1_seconds=0.5, p2_seconds=0.5),
    ... ])
    >>> report.max_seconds, report.sum_seconds, round(report.imbalance_ratio, 3)
    (2.0, 3.0, 1.333)
    """

    shards: List[ShardTiming] = field(default_factory=list)
    #: Wall-clock time of the whole fan-out/merge as seen by the caller
    #: (includes pool scheduling and result transfer overhead).
    wall_seconds: float = 0.0

    @property
    def num_shards(self) -> int:
        """Number of shards in the report."""
        return len(self.shards)

    @property
    def max_seconds(self) -> float:
        """Slowest shard's total time — the parallel critical path."""
        if not self.shards:
            return 0.0
        return max(s.total_seconds for s in self.shards)

    @property
    def sum_seconds(self) -> float:
        """Aggregate work across all shards (serial-equivalent time)."""
        return sum(s.total_seconds for s in self.shards)

    @property
    def mean_seconds(self) -> float:
        """Average shard total time."""
        if not self.shards:
            return 0.0
        return self.sum_seconds / len(self.shards)

    @property
    def imbalance_ratio(self) -> float:
        """Max shard time over mean shard time (>= 1.0; 1.0 is balanced)."""
        mean = self.mean_seconds
        if mean <= 0.0:
            return 1.0
        return self.max_seconds / mean

    def summary(self) -> dict:
        """JSON-friendly aggregate view (for benchmarks and the CLI)."""
        return {
            "num_shards": self.num_shards,
            "wall_seconds": self.wall_seconds,
            "max_seconds": self.max_seconds,
            "sum_seconds": self.sum_seconds,
            "mean_seconds": self.mean_seconds,
            "imbalance_ratio": self.imbalance_ratio,
        }


"""Parallel partitioned execution of flow-motif search.

The paper's slowest experiments (the Figure 13 scaling sweep, Table 4's
phase-1 runs on Bitcoin/Prosper-sized graphs) are embarrassingly
parallelizable over *time*: every maximal instance lives inside a δ-window
``[a, a + δ]`` anchored at a first-edge event, so splitting the timeline
into shards with a δ-sized halo overlap makes each instance wholly visible
to exactly one owning shard. This package builds on that observation:

* :mod:`repro.parallel.partition` — the δ-overlap **time-range
  partitioner** (:func:`partition_time_range`, :class:`TimeShard`) and the
  anchored-ownership rule that makes sharded output exact;
* :mod:`repro.parallel.worker` — the :class:`~repro.parallel.worker.
  ShardTask` every sharded query ships per shard (kind ``search``,
  ``count``, ``top_k`` or ``batch``; the shard as a shared-memory name,
  a sealed-segment path, or the pickled slice; the queries; the trace
  context), the :class:`~repro.parallel.worker.ShardReply` that comes
  back, and the one P1→P2 kernel :func:`~repro.parallel.worker.
  run_shard_task` runs for every kind. Store-ref workers attach or map
  the store once per process and slice their shard as zero-copy views;
* :mod:`repro.parallel.merge` — the merger that rebinds shard-local
  instances onto the parent graph's series, shard by shard, and
  aggregates per-shard timings;
* :mod:`repro.parallel.engine` — :class:`ParallelFlowMotifEngine`, a
  drop-in mirror of :class:`~repro.core.engine.FlowMotifEngine`
  (``find_instances`` / ``count_instances`` / ``top_k``) fanning shards out
  over a process pool (``jobs > 1``) or running them inline (``jobs=1``);
* :mod:`repro.parallel.batch` — :class:`BatchRunner`, a multi-motif grid
  evaluator sharing phase-P1 structural matches across same-topology
  (motif, δ, φ) configurations — the paper's own Table 4 observation that
  P1 is δ/φ-independent, exploited across queries.

Quick start
-----------
>>> from repro import InteractionGraph, Motif
>>> from repro.parallel import ParallelFlowMotifEngine
>>> g = InteractionGraph.from_tuples([
...     ("a", "b", 1.0, 5.0), ("b", "c", 2.0, 4.0), ("b", "c", 3.0, 2.0),
... ])
>>> engine = ParallelFlowMotifEngine(g, jobs=1, shards=2)
>>> engine.find_instances(Motif.chain(3, delta=10, phi=3)).count
1
"""

from repro.parallel.batch import BatchRunner, MotifConfig
from repro.parallel.engine import ParallelFlowMotifEngine
from repro.parallel.merge import merge_search_results
from repro.parallel.partition import (
    TimeShard,
    materialize_shard,
    partition_time_range,
)

__all__ = [
    "BatchRunner",
    "MotifConfig",
    "ParallelFlowMotifEngine",
    "TimeShard",
    "materialize_shard",
    "partition_time_range",
    "merge_search_results",
]

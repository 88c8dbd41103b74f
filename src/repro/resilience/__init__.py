"""Fault-tolerant execution: the robustness layer under the engines.

The parallel and streaming stacks assume a friendly world — workers that
never die, shared-memory segments that are always cleaned up, streams that
arrive in perfect time order. This package drops those assumptions:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (bounded retries,
  capped exponential backoff, per-round shard timeouts), error
  classification, and the typed failures (:class:`ShardExecutionError`,
  :class:`ShardTimeoutError`) the parallel engine raises instead of
  swallowing worker errors. The engine degrades
  ``process → serial`` when the process pool keeps failing; merged output
  stays identical to serial throughout (chaos-property-tested in
  ``tests/resilience``).
* :mod:`repro.resilience.shm_registry` — crash-safe lifecycle for
  shared-memory :class:`~repro.graph.columnar.ColumnStore` exports: a
  process-wide registry with ``atexit``/``SIGTERM`` cleanup, creator-pid
  stamping, and orphan detection/reaping under ``/dev/shm`` for segments
  whose exporter died without unlinking.
* :mod:`repro.resilience.checkpoint` — serialize a
  :class:`~repro.core.streaming.StreamingDetector` (graph, per-match
  progress cursors, reorder buffer, undrained emissions) to a JSON-safe
  dict and restore it so a resumed stream emits exactly what an
  uninterrupted run would have.
* :mod:`repro.resilience.faultinject` — the chaos harness: one fault
  plan kills, delays or raises at shard tasks and at the segment store's
  seal and compaction crash points; stream perturbations drop /
  duplicate / reorder-within-slack / corrupt lines with deterministic
  seeded randomness.
"""

from repro.resilience.checkpoint import CheckpointError, load_checkpoint
from repro.resilience.faultinject import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_lines,
    crash_point,
    drop_events,
    duplicate_events,
    inject,
    reorder_within_slack,
)
from repro.resilience.retry import (
    DispatchReport,
    FaultEvent,
    RetryPolicy,
    ShardExecutionError,
    ShardTimeoutError,
    classify_error,
)
from repro.resilience.shm_registry import (
    SegmentCorruptionError,
    active_segments,
    cleanup_segments,
    reap_orphans,
    scan_orphans,
)

__all__ = [
    "CheckpointError",
    "DispatchReport",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "SegmentCorruptionError",
    "ShardExecutionError",
    "ShardTimeoutError",
    "active_segments",
    "classify_error",
    "cleanup_segments",
    "corrupt_lines",
    "crash_point",
    "drop_events",
    "duplicate_events",
    "inject",
    "load_checkpoint",
    "reap_orphans",
    "reorder_within_slack",
    "scan_orphans",
]

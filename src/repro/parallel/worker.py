"""The shard task, its reply, and the one P1→P2 kernel pool workers run.

Every sharded query — find, count, top-k, or a batch grid — ships one
:class:`ShardTask` per shard and gets one :class:`ShardReply` back. The
task is a frozen, picklable value, so it is dispatched over a
:class:`concurrent.futures.ProcessPoolExecutor` as readily as it is run
inline (``jobs=1``, or a single shard). It carries the shard in one of
three ways:

* the name of a shared-memory :class:`~repro.graph.columnar.ColumnStore`
  (``shm_name``), the process pool's default;
* the path of a sealed segment file (``segment_path``) when the graph is
  backed by the durable store;
* the materialized :class:`~repro.parallel.partition.TimeShard` itself,
  for the pickled transport and inline runs.

With a store ref only the shard's ``bounds`` travel; the worker resolves
the store once per process and slices each shard once, straight off the
store's zero-copy series views (:data:`_STORES`), so the spawn payload is
O(1) per shard instead of O(events). Pool workers live as long as their
engine's pool, so every later query on the same partition finds its
shard already sliced and its P1 already run. A fault plan armed by the
dispatcher travels in the task too (``fault_plan``): a worker forked
before the plan was armed never sees it in its environment.

:func:`run_shard_task` runs one kernel for every kind: phase P1 once per
motif shape (label-ordered edges), then each query's phase-P2 op
(enumerate, count or top-k). P1 reads the shard's
:class:`~repro.core.matching.MatchCache` at the smallest φ among the
task's queries of that shape: a shard only keeps matches that can host
an instance *somewhere in the shard*, a superset of what its owned
windows need.

Workers do **not** ship :class:`~repro.core.instance.MotifInstance`
objects back to the parent: an instance found in a shard is reduced to a
compact :class:`InstanceRecord` — the vertex map plus one shard-local
``(lo, hi)`` index range per motif edge. The merger rebinds records onto
the parent graph's series using the shard's slice offsets, so merged
instances are bit-identical to what a serial search would have produced
(including being backed by the parent's own :class:`EdgeSeries` objects).
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.core import counting as _counting
from repro.core import enumeration as _enumeration
from repro.core import topk as _topk
from repro.core.instance import MotifInstance
from repro.core.matching import MatchCache
from repro.core.motif import Motif
from repro.graph.columnar import ColumnStore
from repro.graph.events import Node
from repro.obs import metrics as _obs_metrics
from repro.obs import profiler as _obs_profiler
from repro.obs import tracing as _tracing
from repro.obs.tracing import span as _span
from repro.parallel.partition import TimeShard, slice_shard
from repro.resilience import faultinject as _faultinject

LOG = logging.getLogger("repro.parallel.worker")

#: Compact shard-local form of one instance: the vertex map plus one
#: inclusive (lo, hi) index range per motif edge, indices into the
#: *shard's* sliced series.
InstanceRecord = Tuple[Tuple[Node, ...], Tuple[Tuple[int, int], ...]]


@dataclass
class ShardSearchOutput:
    """What one shard worker sends back to the merger."""

    shard_index: int
    records: List[InstanceRecord] = field(default_factory=list)
    count: int = 0
    num_matches: int = 0
    p1_seconds: float = 0.0
    p2_seconds: float = 0.0
    #: Index of the grid configuration this output answers (batch runs).
    config_index: int = 0


def _record(instance: MotifInstance) -> InstanceRecord:
    """Reduce an instance to its shard-local record form."""
    return (
        instance.vertex_map,
        tuple((run.lo, run.hi) for run in instance.runs),
    )


#: One query of a shard task: ``(motif, delta, phi)`` with the effective
#: (motif-default-resolved) constraints. A batch task's outputs answer
#: its queries in order (``ShardSearchOutput.config_index``).
ShardQuery = Tuple[Motif, float, float]

#: The P2 span (and op) of each task kind.
_P2_SPANS = {
    "search": "p2.enumerate",
    "batch": "p2.enumerate",
    "count": "p2.count",
    "top_k": "p2.top_k",
}


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to answer its shard's queries.

    Attributes
    ----------
    kind:
        ``"search"``, ``"count"``, ``"top_k"`` or ``"batch"`` — the P2 op,
        and the task kind :class:`~repro.resilience.FaultSpec` filters on.
    bounds:
        The shard's :attr:`TimeShard.bounds`; the shard index is
        ``bounds[0]``.
    queries:
        The :data:`ShardQuery` tuples to answer (one unless ``"batch"``);
        a top-k query carries φ=0, as ranking needs every flow.
    shm_name, segment_path, shard:
        Where the shard comes from — exactly one is set: a shared-memory
        store, a sealed segment file, or the materialized shard itself.
    collect:
        ``False`` counts search results without building records.
    k:
        Top-k size (``"top_k"`` only).
    trace:
        The dispatcher's ``(trace_id, parent_span_id)`` when observability
        is on (``(None, None)`` with metrics but no tracer); ``None`` runs
        the task unobserved.
    profile_hz:
        Arms a per-task sampling profiler at this rate.
    fault_plan:
        The dispatcher's armed :class:`~repro.resilience.FaultPlan` as
        JSON (``None`` when disarmed), read from its environment once per
        fan-out; the chaos hook fires from this copy only.
    """

    kind: str
    bounds: Tuple[int, int, float, float, float]
    queries: Tuple[ShardQuery, ...]
    shm_name: Optional[str] = None
    segment_path: Optional[str] = None
    shard: Optional[TimeShard] = None
    collect: bool = True
    k: int = 0
    trace: Optional[Tuple[Optional[str], Optional[str]]] = None
    profile_hz: Optional[float] = None
    fault_plan: Optional[str] = None

    def __reduce__(self):
        # Pickle positionally: the field names would double the spawn
        # payload of a store-ref task.
        return (ShardTask, tuple(getattr(self, f.name) for f in fields(self)))


@dataclass
class ShardReply:
    """What :func:`run_shard_task` returns: one output per query, plus the
    worker's spans, metrics snapshot and profile when the task was
    observed (``None`` otherwise)."""

    outputs: List[ShardSearchOutput]
    spans: Optional[List[dict]] = None
    snapshot: Optional[dict] = None
    profile: Optional[dict] = None


def _run_kernel(
    task: ShardTask, shard: TimeShard, cache: MatchCache
) -> List[ShardSearchOutput]:
    """Answer ``task.queries`` over one materialized shard.

    Phase P1 asks ``cache`` (a store-ref shard's, kept in :data:`_STORES`,
    or a fresh one for this task) once per motif shape (label-ordered
    ``edges``), at the smallest φ among the task's queries of that shape,
    and its time is charged to the first query of each topology group;
    the others read that list and report ``p1_seconds == 0.0``, so
    summing per-query timings reflects the real total work. Each query
    then runs the kind's P2 op restricted to the shard's owned anchors.
    The ``anchor_range`` restriction is also what makes merged top-k
    exact: every globally top-k instance is owned by some shard and is
    among that shard's local top-k, while halo-anchored windows (possibly
    truncated by the shard's data boundary) never displace genuine owned
    candidates.
    """
    outputs: List[ShardSearchOutput] = []
    empty = shard.graph.num_series == 0
    anchor_range = shard.anchor_range
    p2_name = _P2_SPANS[task.kind]
    prune_phi: Dict[tuple, float] = {}
    for motif, _, phi in task.queries:
        key = motif.edges
        prune_phi[key] = min(phi, prune_phi.get(key, phi))
    for config_index, (motif, delta, phi) in enumerate(task.queries):
        out = ShardSearchOutput(shard_index=shard.index, config_index=config_index)
        outputs.append(out)
        if empty:
            continue
        if motif.edges in prune_phi:
            with _span("p1.match", shard=shard.index) as p1:
                matches = cache.matches(motif, prune_phi.pop(motif.edges))
            out.p1_seconds = p1.elapsed
        else:
            matches = cache.matches(motif, phi)
        out.num_matches = len(matches)
        attrs = {"config": config_index} if task.kind == "batch" else {}
        with _span(p2_name, shard=shard.index, **attrs) as p2:
            if task.kind == "count":
                out.count = _counting.count_instances(
                    matches, delta=delta, phi=phi, anchor_range=anchor_range
                )
            elif task.kind == "top_k":
                instances = _topk.top_k_instances(
                    matches, task.k, delta=delta, anchor_range=anchor_range
                )
                out.records = [_record(inst) for inst in instances]
                out.count = len(instances)
            else:
                _enumeration.find_instances(
                    matches,
                    delta=delta,
                    phi=phi,
                    on_instance=_sink(out, task.collect),
                    anchor_range=anchor_range,
                )
        out.p2_seconds = p2.elapsed
    return outputs


def _sink(out: ShardSearchOutput, collect: bool):
    """The enumeration callback counting (and recording) into ``out``."""
    if collect:
        def sink(instance: MotifInstance) -> None:
            out.count += 1
            out.records.append(_record(instance))
    else:
        def sink(instance: MotifInstance) -> None:
            out.count += 1
    return sink


def search_shard(
    shard: TimeShard,
    motif: Motif,
    delta: float,
    phi: float,
    collect: bool = True,
) -> ShardSearchOutput:
    """Find the shard's owned maximal instances (its slice of Algorithm 1).

    ``delta`` and ``phi`` must be the resolved effective constraints (the
    engine applies motif defaults before dispatch), and ``delta`` must not
    exceed the shard's halo width.
    """
    task = ShardTask(
        "search", shard.bounds, ((motif, delta, phi),), shard=shard,
        collect=collect,
    )
    return _run_kernel(task, shard, MatchCache(shard.graph))[0]


#: Per-process cache of resolved stores, keyed by shm name or segment
#: path: the attached store plus the shards sliced off it, with their P1
#: match caches, by ``bounds`` in least-recently-used order. A pool worker
#: serves every query of its engine, so attaching (or mapping and
#: validating every CRC) is paid once per store and slicing once per
#: shard; two partitions' worth of shards (``2 * num_shards``) stay
#: resident, enough for a query stream alternating between two halos.
_STORES: Dict[str, Tuple[ColumnStore, Dict[tuple, tuple]]] = {}
_STORES_LOCK = threading.Lock()


def _reset_lock_in_child() -> None:
    # A pool forked while another thread of this process held the lock
    # (a user thread running an engine's inline path) would inherit it
    # held.
    global _STORES_LOCK
    _STORES_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def _store_shard(task: ShardTask) -> Tuple[TimeShard, MatchCache]:
    """A store-ref task's shard, sliced once per process, and its P1 cache.

    Workers never quarantine a segment: a corrupt file raises
    :class:`~repro.resilience.SegmentCorruptionError` back to the
    dispatcher (a task error, retried a bounded number of rounds); the
    *owner* of the store decides about renaming files.
    """
    ref = task.shm_name or task.segment_path
    with _STORES_LOCK:
        entry = _STORES.get(ref)
        if entry is None:
            with _span("transport.attach"):
                if task.shm_name is not None:
                    store = ColumnStore.attach(ref)
                else:
                    from repro.graph.segments import open_segment

                    store = open_segment(ref, quarantine=False)
            entry = _STORES[ref] = (store, {})
        store, shards = entry
        cached = shards.pop(task.bounds, None)
        if cached is None:
            with _span("transport.slice"):
                shard = slice_shard(store.iter_series(), task.bounds)
            cached = (shard, MatchCache(shard.graph))
        shards[task.bounds] = cached
        while len(shards) > 2 * task.bounds[1]:
            del shards[next(iter(shards))]
        return cached


def release_store(ref: str) -> None:
    """Drop this process's cached attach of ``ref`` and its shards.

    Pool workers exit with their pool; this is for the dispatching
    process, where store-ref tasks run inline after a process dispatch
    degrades to serial. A view still alive elsewhere pins the mapping
    (``BufferError``); it is then released when the last view dies.
    """
    with _STORES_LOCK:
        entry = _STORES.pop(ref, None)
    if entry is None:
        return
    store, shards = entry
    shards.clear()
    try:
        store.close()
    except BufferError:
        LOG.debug("store %s released but still mapped by live views", ref)


def _execute(task: ShardTask) -> List[ShardSearchOutput]:
    """Resolve and materialize the shard, fire the chaos hook, run."""
    shard = task.shard
    if shard is None:
        with _span("worker.materialize", shard=task.bounds[0]):
            shard, cache = _store_shard(task)
    else:
        cache = MatchCache(shard.graph)
    # Chaos hook: a no-op unless the task carries a fault plan
    # (tests/resilience). Fires exactly once per task.
    _faultinject.maybe_inject(shard.index, task.kind, task.fault_plan)
    return _run_kernel(task, shard, cache)


def run_shard_task(task: ShardTask) -> ShardReply:
    """The pool entry point: run one shard task, observed if it asks.

    An untraced task (``task.trace is None``) just runs. Otherwise a
    *fresh* per-task registry and tracer are activated on this thread —
    thread-local activation means engines run from concurrent user
    threads never share mutable state — and the previous state is
    restored afterwards, so the serial inline path leaves the
    dispatcher's own registry untouched. The tracer is parented at the
    shipped context, and the whole task (store resolve and materialize
    included) runs under one ``worker.shard_task`` span. ``profile_hz``
    arms a sampling :class:`~repro.obs.profiler.Profiler` pinned to this
    thread — unless one is already sampling it (the serial inline path,
    where a second profiler would double-count).

    The reply's spans, snapshot and profile are what the engine stitches,
    merges and adopts parent-side.
    """
    if task.trace is None:
        return ShardReply(_execute(task))
    trace_id, parent_id = task.trace
    registry = _obs_metrics.MetricsRegistry()
    tracer = (
        _tracing.Tracer(trace_id, parent_id) if trace_id is not None else None
    )
    ambient_prof = _obs_profiler.active()
    profiler = (
        _obs_profiler.Profiler(hz=task.profile_hz)
        if task.profile_hz
        and (ambient_prof is None or not ambient_prof.sampling_here)
        else None
    )
    prev_registry = _obs_metrics.activate(registry)
    prev_tracer = _tracing.activate(tracer)
    if profiler is not None:
        profiler.start()
    try:
        if tracer is not None:
            with tracer.span("worker.shard_task", shard=task.bounds[0]):
                outputs = _execute(task)
        else:
            outputs = _execute(task)
    finally:
        if profiler is not None:
            profiler.stop()
        _obs_metrics.activate(prev_registry)
        _tracing.activate(prev_tracer)
    return ShardReply(
        outputs,
        spans=tracer.spans() if tracer is not None else [],
        snapshot=registry.snapshot(),
        profile=profiler.report.to_dict() if profiler is not None else None,
    )

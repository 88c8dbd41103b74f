"""The :class:`ParallelFlowMotifEngine` — sharded, multi-worker search.

Mirrors the :class:`~repro.core.engine.FlowMotifEngine` API
(``find_instances`` / ``count_instances`` / ``top_k``) but executes each
query over a δ-overlap time partition (:mod:`repro.parallel.partition`),
fanning the shards out over a worker pool and merging the owned results
(:mod:`repro.parallel.merge`). Output is exactly the serial engine's —
property-tested for arbitrary shard counts in ``tests/parallel``.

>>> from repro import InteractionGraph, Motif
>>> g = InteractionGraph.from_tuples([
...     ("a", "b", 1.0, 5.0), ("b", "c", 2.0, 4.0), ("b", "c", 3.0, 2.0),
... ])
>>> engine = ParallelFlowMotifEngine(g, jobs=1, shards=3)
>>> result = engine.find_instances(Motif.chain(3, delta=10, phi=3))
>>> result.count, result.shard_timings.num_shards
(1, 3)

Execution
---------
``jobs > 1``
    Shards fan out over a :class:`concurrent.futures.ProcessPoolExecutor`
    — true multi-core speedup for the pure-Python, CPU-bound shard
    kernel. The graph is exported once into a shared-memory
    :class:`~repro.graph.columnar.ColumnStore` and each worker's
    :class:`~repro.parallel.worker.ShardTask` carries only the shm name
    and shard bounds — zero-copy fan-out; workers rebuild their slice
    as memoryview views over the shared block. Graphs the store cannot
    hold bit-exactly, and hosts without usable shared memory, fall back
    to pickled shard slices. Results must still pickle (they do for all
    built-in node types; use ``jobs=1`` for exotic ones).
``jobs=1``, or a fan-out with a single shard
    Shards run one after another in this process — the deterministic
    reference used by the equivalence tests, and the last step
    (``"serial"``) of the degradation chain. Every job count merges to
    the same list (:mod:`repro.parallel.merge`).

``backend`` only accepts ``"process"``; an in-process run is ``jobs=1``.

Worker pools
------------
Each engine keeps one process pool, started on its first fan-out and
reused by every later query and retry round, so a query pays neither a
fork nor a store attach once the pool is warm; its workers also keep
the shards they have sliced
(:data:`repro.parallel.worker._STORES`). A round that records a fault or
a timeout drops its pool without waiting on stragglers (a killed worker
poisons a process pool), and the next round starts a fresh one.
:meth:`ParallelFlowMotifEngine.close` shuts the pool down and joins
its workers before it releases the shared-memory export.
"""

from __future__ import annotations

import logging
import os
import time as _time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import List, Optional, Sequence, Union

from repro.core.engine import SearchResult
from repro.core.instance import MotifInstance
from repro.core.motif import Motif
from repro.graph.columnar import ColumnStore
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import flight as _flight
from repro.obs import tracing as _tracing
from repro.obs.slot import current as _current_observation
from repro.parallel import merge as _merge
from repro.parallel import worker as _worker
from repro.parallel.partition import (
    TimeShard,
    materialize_shard,
    partition_time_range,
)
from repro.resilience import faultinject as _faultinject
from repro.resilience.retry import (
    DispatchReport,
    RetryPolicy,
    ShardExecutionError,
    ShardTimeoutError,
)

LOG = logging.getLogger("repro.parallel.engine")

#: Graceful-degradation order: when the process pool exhausts its
#: retries, the dispatcher falls through to "serial" — the inline loop,
#: which shares the caller's process and therefore cannot lose workers.
_DEGRADATION_CHAIN = ("process", "serial")

#: Partitions retained per engine. Each partition holds sliced copies of
#: the graph's event arrays, so the memo is a small LRU rather than
#: unbounded: δ-sweeps touching many distinct halos keep only the most
#: recent few resident.
_PARTITION_CACHE_SIZE = 2


class ParallelFlowMotifEngine:
    """Time-sharded flow-motif search over one interaction network.

    Parameters
    ----------
    graph:
        The raw :class:`InteractionGraph` or its merged
        :class:`TimeSeriesGraph` view.
    jobs:
        Worker count, at least 1; defaults to ``os.cpu_count()``.
        ``jobs=1`` runs shards one after another in this process.
    shards:
        Shard count, at least 1; defaults to ``jobs``. More shards than
        jobs gives the pool latitude to balance uneven shards.
    backend:
        ``"process"``, the only value (see module notes).
    retry_policy:
        Fault-tolerance knobs for shard dispatch (see
        :class:`repro.resilience.RetryPolicy`): per-round shard timeout,
        bounded retries with deterministic backoff, and whether the
        engine may degrade ``process → serial`` when the pool keeps
        failing. The default policy retries twice per backend and
        degrades; shard tasks are pure functions of their payload, so a
        retried or degraded dispatch merges to output identical to an
        undisturbed run. The :attr:`last_dispatch` report records what
        happened.

    Notes
    -----
    Each query partitions the timeline with a halo equal to its effective
    δ, cutting the cores at event-count quantiles (partitions are
    memoized per (shards, halo), so δ-sweeps à la Figure 9 reuse one
    partition per δ).

    A zero-copy engine owns one shared-memory block for its graph, and
    an engine with ``jobs > 1`` one worker pool; both are created lazily
    on the first fan-out, reused by every later query, and released by
    :meth:`close` (also wired to garbage collection, and to
    ``with ParallelFlowMotifEngine(...) as engine:``).
    """

    def __init__(
        self,
        graph: Union[InteractionGraph, TimeSeriesGraph],
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        backend: str = "process",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        # Set before validation: __del__ releases these even when the
        # constructor raised.
        self._export: Optional[ColumnStore] = None
        self._export_owned = False
        #: The store ref (shm name or segment path) tasks last shipped.
        self._store_ref: Optional[str] = None
        #: The live process pool, started on the first fan-out.
        self._pool_executor: Optional[ProcessPoolExecutor] = None
        #: Workers of pools dropped by failed rounds; close() ends them.
        self._stragglers: List = []
        if isinstance(graph, InteractionGraph):
            self._ts = graph.to_time_series()
        elif isinstance(graph, TimeSeriesGraph):
            self._ts = graph
        else:
            raise TypeError(
                "graph must be an InteractionGraph or TimeSeriesGraph, "
                f"got {type(graph).__name__}"
            )
        if backend != "process":
            raise ValueError(
                f"backend must be 'process' (pass jobs=1 to run shards "
                f"in this process), got {backend!r}"
            )
        for name, value in (("jobs", jobs), ("shards", shards)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.num_shards = shards if shards is not None else self.jobs
        self.backend = backend
        # Zero-copy fan-out only pays off (and only applies) when shard
        # tasks actually cross a process boundary. Graphs a ColumnStore
        # cannot hold bit-exactly (exotic node ids, values not exact in
        # float64), and hosts whose shared memory is missing or full,
        # are detected when the export is first attempted and flip this
        # flag back off — see _shard_tasks.
        self._zero_copy = self.jobs > 1
        self._partition_cache: dict = {}
        self._sorted_times: Optional[List[float]] = None
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: Fault/retry/degradation report of the most recent dispatch.
        self.last_dispatch: Optional[DispatchReport] = None
        # Arm the flight recorder when REPRO_FLIGHT_DIR names a bundle
        # directory — one env read; a no-op in the common case.
        _flight.maybe_install_from_env()

    @property
    def time_series_graph(self) -> TimeSeriesGraph:
        """The underlying merged graph ``G_T``."""
        return self._ts

    # ------------------------------------------------------------------
    # Partitioning and dispatch
    # ------------------------------------------------------------------

    def partition(self, halo: float) -> List[TimeShard]:
        """The memoized δ-overlap partition for a given halo width
        (LRU-bounded: only the most recent few halos stay resident).

        Cores are cut at event-count quantiles of the whole timeline
        (:func:`~repro.parallel.partition.partition_time_range`), so
        every shard owns about the same number of events. The shards are
        light (bounds and rebinding offsets only); :meth:`_shard_tasks`
        slices them when a fan-out needs the slice in this process.
        """
        with _tracing.span("parallel.partition", halo=halo):
            key = (self.num_shards, halo)
            cached = self._partition_cache.pop(key, None)
            if cached is not None:
                self._partition_cache[key] = cached  # refresh LRU position
                return cached
            if self._sorted_times is None:
                # The flattened timeline sort is halo-independent: pay it
                # once per engine, not once per δ in a sweep.
                self._sorted_times = sorted(
                    t for series in self._ts.all_series() for t in series.times
                )
            shards = partition_time_range(
                self._ts,
                self.num_shards,
                halo,
                sorted_times=self._sorted_times,
                materialize=False,
            )
            self._partition_cache[key] = shards
            while len(self._partition_cache) > _PARTITION_CACHE_SIZE:
                self._partition_cache.pop(next(iter(self._partition_cache)))
            return shards

    def clear_cache(self) -> None:
        """Drop memoized partitions (e.g. after replacing the graph)."""
        self._partition_cache.clear()
        self._sorted_times = None
        self.close()

    # ------------------------------------------------------------------
    # Shared-memory export lifecycle (zero-copy process fan-out)
    # ------------------------------------------------------------------

    def _shared_store(self) -> ColumnStore:
        """The engine's shared-memory export, created on first use.

        A graph already backed by a shared :class:`ColumnStore` (e.g.
        ``ColumnStore.attach(name).to_graph()``) is reused as-is — no
        second copy, and the engine does not take ownership.
        """
        if self._export is None:
            base = getattr(self._ts, "_column_store", None)
            if base is not None and base.shm_name is not None:
                self._export = base
                self._export_owned = False
            else:
                store = (
                    base
                    if base is not None
                    else ColumnStore.from_graph(self._ts)
                )
                self._export = store.to_shared()
                self._export_owned = True
        return self._export

    def close(self) -> None:
        """Shut the worker pool down, joining its workers (killing
        those still running a failed round's task), and release the
        shared-memory export (if this engine owns one).

        Queries after ``close()`` start a new pool and re-export lazily;
        calling it twice is safe.
        """
        self._release(wait=True)

    def _release(self, wait: bool) -> None:
        self._drop_pool(wait=wait)
        if wait:
            stragglers, self._stragglers = self._stragglers, []
            for proc in stragglers:
                # SIGKILL: a caught SIGTERM runs Python handlers, which
                # can block in a forked worker; its task is abandoned.
                proc.kill()
                proc.join()
        ref, self._store_ref = self._store_ref, None
        if ref is not None:
            # Store-ref tasks that degraded to serial ran here and left
            # an attach of the store in this process's worker cache.
            _worker.release_store(ref)
        export, self._export = self._export, None
        if export is not None and self._export_owned:
            self._export_owned = False
            try:
                export.close(unlink=True)
            except BufferError:
                # A live view pins the mapping, but close(unlink=True)
                # unlinks the name *before* closing, so the segment is
                # already gone from the system; only our mapping lingers
                # until the views die. Logged, not raised: callers
                # closing an engine should not crash on a borrowed view.
                LOG.debug(
                    "shm export %s unlinked but still mapped by live views",
                    getattr(export, "shm_name", "<unknown>"),
                )

    def __enter__(self) -> "ParallelFlowMotifEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        if "_pool_executor" not in self.__dict__:
            return  # __init__ never ran: its arguments did not bind
        try:
            self._release(wait=False)
        except BaseException as exc:  # noqa: BLE001 - __del__ must not raise
            # A leaked shared-memory export is exactly the failure the
            # resilience layer exists to catch, so classify and log it
            # instead of swallowing it; raising from __del__ would only
            # produce an unraisable-exception warning anyway. The
            # registry's atexit hook still reclaims the segment.
            try:
                LOG.warning(
                    "failed to release engine resources in __del__ "
                    "(%s: %s); shm cleanup deferred to the exit hooks",
                    type(exc).__name__,
                    exc,
                )
            except Exception:
                pass  # logging machinery itself torn down at interpreter exit

    def _shard_tasks(
        self,
        shards: Sequence[TimeShard],
        kind: str,
        queries: Sequence[_worker.ShardQuery],
        **options,
    ) -> List[_worker.ShardTask]:
        """One :class:`~repro.parallel.worker.ShardTask` per shard.

        The transport is picked once for the whole fan-out. Zero-copy
        mode ships the engine's shared-memory export name
        (``shm_name``) and the shard's ``bounds`` — a name and five
        numbers per worker. A graph backed by a durable sealed segment
        (:class:`~repro.graph.segments.SegmentColumnStore`) ships its
        ``segment_path`` instead: workers mmap the file themselves, so
        no shm export is ever created and graphs larger than RAM fan out
        by path. Otherwise the materialized shard travels in the task.

        A single shard never leaves this process (``_dispatch`` runs it
        inline), so the shared-memory export it would force is skipped.
        A graph the columnar store cannot hold bit-exactly (exotic node
        ids, values not exact in float64) is detected on the first
        export attempt and permanently flips the engine to the pickled
        transport — one validation scan, no query-time failure. The
        partition's light shards are materialized here when the fan-out
        runs inline or pickled, list-backed (safe to pickle), and cached
        in place so repeat queries on the same partition pay the copy
        once.

        When an observation is active on this (the dispatching) thread,
        every task also carries its trace context and profile rate; see
        :func:`repro.parallel.worker.run_shard_task`. A fault plan armed
        in this process's environment
        (:func:`repro.resilience.inject`) is read here, once, and rides in
        every task, since a reused pool's workers never see later changes
        to the environment.
        """
        observation = _current_observation()
        tracer = observation.tracer if observation is not None else None
        # Captured here, outside transport.export: worker spans are
        # children of the query span.
        context = tracer.context() if tracer is not None else (None, None)
        transport: dict = {}
        if self._zero_copy and len(shards) > 1:
            base = getattr(self._ts, "_column_store", None)
            segment_path = getattr(base, "path", None)
            if segment_path is not None:
                transport = {"segment_path": str(segment_path)}
            else:
                try:
                    with _tracing.span("transport.export"):
                        store = self._shared_store()
                    transport = {"shm_name": store.shm_name}
                except (TypeError, ValueError, OSError, ImportError):
                    # TypeError/ValueError: the graph cannot live in a
                    # ColumnStore bit-exactly (exotic node ids, values
                    # not exact in float64). OSError: shared memory
                    # itself is unavailable or too small (e.g. a
                    # container's 64 MB /dev/shm). ImportError: this
                    # Python has no shared memory. Either way the
                    # pickled transport works.
                    self._zero_copy = False
        if transport:
            self._store_ref = next(iter(transport.values()))
        else:
            for shard in shards:
                if shard.graph is None:
                    shard.graph = materialize_shard(
                        self._ts, shard.bounds, zero_copy=False
                    ).graph
        if observation is not None:
            prof = observation.profiler
            options["trace"] = context
            options["profile_hz"] = prof.hz if prof is not None else None
        options["fault_plan"] = os.environ.get(_faultinject.ENV_VAR)
        queries = tuple(queries)
        return [
            _worker.ShardTask(
                kind,
                shard.bounds,
                queries,
                shard=None if transport else shard,
                **transport,
                **options,
            )
            for shard in shards
        ]

    def _adopt_replies(
        self, replies: Sequence[_worker.ShardReply]
    ) -> List[List[_worker.ShardSearchOutput]]:
        """Fold worker observability payloads into this thread's
        observation and return each shard's outputs.

        :meth:`~repro.obs.Observation.adopt` stitches the worker spans
        under the dispatching span via their shipped parent ids, merges
        snapshots associatively and folds profiles in. Replies from
        retried attempts that ultimately failed never reach this point,
        so each shard contributes exactly one snapshot.
        """
        observation = _current_observation()
        recorder = _flight.installed()
        for reply in replies:
            if observation is not None:
                observation.adopt(reply.spans, reply.snapshot, reply.profile)
            if recorder is not None and reply.snapshot:
                recorder.note_metrics(reply.snapshot)
        return [reply.outputs for reply in replies]

    def _run_queries(
        self,
        shards: Sequence[TimeShard],
        kind: str,
        queries: Sequence[_worker.ShardQuery],
        **options,
    ) -> List[List[_worker.ShardSearchOutput]]:
        """Fan ``queries`` out over ``shards``; outputs regrouped per query
        (``result[q][s]`` answers query ``q`` on shard ``s``)."""
        tasks = self._shard_tasks(shards, kind, queries, **options)
        per_query: List[List[_worker.ShardSearchOutput]] = [
            [] for _ in queries
        ]
        for outputs in self._dispatch(tasks):
            for output in outputs:
                per_query[output.config_index].append(output)
        return per_query

    def _dispatch(
        self, tasks: Sequence[_worker.ShardTask]
    ) -> List[List[_worker.ShardSearchOutput]]:
        """Run shard tasks, preserving order: inline when ``jobs == 1``
        or there is a single task, else on the process pool.

        Fault-tolerant: failed or timed-out shards are retried per
        :attr:`retry_policy` (on a fresh pool after a failed round — a
        ``BrokenExecutor`` poisons its pool), and when the process pool
        exhausts its retries the dispatcher degrades to ``"serial"``. Shard
        tasks are pure, so a shard that succeeds on any round/backend
        contributes exactly the output it would have produced first try,
        and the merge stays identical to serial. Every failure is
        classified and logged into :attr:`last_dispatch`; if even the
        serial step cannot complete a shard (or degradation is disabled),
        :class:`~repro.resilience.ShardExecutionError` surfaces the whole
        fault history.
        """
        report = DispatchReport(backend=self.backend, final_backend=self.backend)
        self.last_dispatch = report
        if self.jobs == 1 or len(tasks) <= 1:
            report.backend = report.final_backend = "serial"
            return self._adopt_replies(
                [_worker.run_shard_task(task) for task in tasks]
            )
        policy = self.retry_policy
        results: List = [None] * len(tasks)
        pending = list(range(len(tasks)))
        chain = (
            _DEGRADATION_CHAIN if policy.degrade else _DEGRADATION_CHAIN[:1]
        )
        for step, backend in enumerate(chain):
            report.final_backend = backend
            if step > 0:
                report.record_degradation(backend)
                LOG.warning(
                    "degrading dispatch to %r backend (%d shard(s) "
                    "unresolved after %s)",
                    backend,
                    len(pending),
                    report.faults[-1] if report.faults else "failures",
                )
            for round_no in range(policy.max_retries + 1):
                if round_no > 0:
                    report.record_retry_round(backend)
                    _time.sleep(policy.delay_for(round_no - 1))
                pending = self._run_round(
                    tasks, results, pending, backend, round_no, report
                )
                if not pending:
                    return self._adopt_replies(results)
        raise ShardExecutionError(
            f"shards {pending} failed on every backend "
            f"({' -> '.join(chain)}) "
            f"after {policy.max_retries} retries each; fault history: "
            f"{'; '.join(str(f) for f in report.faults)}",
            faults=report.faults,
        )

    def _run_round(
        self,
        tasks: Sequence[_worker.ShardTask],
        results: List,
        pending: List[int],
        backend: str,
        round_no: int,
        report: DispatchReport,
    ) -> List[int]:
        """One dispatch round over the still-pending shards.

        Fills ``results`` in place and returns the shard indices that
        failed this round (classified and recorded on the way). The
        process step runs on the engine's pool, which a round that fails
        drops (see :meth:`_pool`).
        """
        if backend == "serial":
            failed: List[int] = []
            for index in pending:
                try:
                    results[index] = _worker.run_shard_task(tasks[index])
                except Exception as exc:
                    report.record(index, backend, round_no, exc)
                    failed.append(index)
            return failed
        policy = self.retry_policy
        deadline = (
            _time.monotonic() + policy.timeout
            if policy.timeout is not None
            else None
        )
        failed = []
        healthy = False
        try:
            with _tracing.span(
                "parallel.dispatch", backend=backend, round=round_no
            ):
                pool = self._pool()
                futures = {}
                for index in pending:
                    try:
                        futures[index] = pool.submit(
                            _worker.run_shard_task, tasks[index]
                        )
                    except BrokenExecutor as exc:
                        # A worker died while the pool sat idle.
                        report.record(index, backend, round_no, exc)
                        failed.append(index)
                for index, future in futures.items():
                    try:
                        if deadline is None:
                            results[index] = future.result()
                        else:
                            remaining = deadline - _time.monotonic()
                            if remaining <= 0:
                                raise ShardTimeoutError(
                                    f"shard {index} unfinished at the "
                                    f"round's {policy.timeout}s deadline"
                                )
                            results[index] = future.result(timeout=remaining)
                    except FuturesTimeoutError:
                        report.record(
                            index,
                            backend,
                            round_no,
                            ShardTimeoutError(
                                f"shard {index} unfinished at the round's "
                                f"{policy.timeout}s deadline"
                            ),
                        )
                        failed.append(index)
                    except Exception as exc:
                        report.record(index, backend, round_no, exc)
                        failed.append(index)
            healthy = not failed
        finally:
            if not healthy:
                # Don't wait on stragglers from a timed-out round, and
                # never reuse a possibly-broken pool.
                self._drop_pool()
        return failed

    def _pool(self) -> ProcessPoolExecutor:
        """The engine's process pool, started on first use.

        It has ``jobs`` workers, capped at the shard count: a fan-out
        never has more tasks than shards, so wider pools would only fork
        idle workers.
        """
        if self._pool_executor is None:
            self._pool_executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, self.num_shards)
            )
        return self._pool_executor

    def _drop_pool(self, wait: bool = False) -> None:
        """Shut the process pool down (if one is live) and forget it;
        ``wait`` joins its workers, else :meth:`close` ends them."""
        pool, self._pool_executor = self._pool_executor, None
        if pool is not None:
            if not wait:  # shutdown() forgets its private worker map
                self._stragglers.extend(pool._processes.values())
            pool.shutdown(wait=wait, cancel_futures=True)

    # ------------------------------------------------------------------
    # FlowMotifEngine-mirroring entry points
    # ------------------------------------------------------------------

    def _search(
        self,
        kind: str,
        motif: Motif,
        delta: Optional[float],
        phi: Optional[float],
        **options,
    ) -> SearchResult:
        """One sharded find (``kind="search"``) or count, merged."""
        effective_delta = motif.delta if delta is None else delta
        effective_phi = motif.phi if phi is None else phi
        name = "find_instances" if kind == "search" else "count_instances"
        with _tracing.span(
            f"query.{name}",
            motif=str(motif),
            delta=effective_delta,
            backend="serial" if self.jobs == 1 else self.backend,
            shards=self.num_shards,
        ) as query:
            shards = self.partition(effective_delta)
            (outputs,) = self._run_queries(
                shards, kind, [(motif, effective_delta, effective_phi)],
                **options,
            )
            with _tracing.span("parallel.merge"):
                return _merge.merge_search_results(
                    motif, shards, outputs, self._ts,
                    wall_seconds=query.elapsed,
                )

    def find_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
        collect: bool = True,
    ) -> SearchResult:
        """All maximal instances of ``motif`` — sharded Algorithm 1.

        Accepts the query arguments of
        :meth:`repro.core.engine.FlowMotifEngine.find_instances` (not its
        ablation switches) and returns an identical
        instance set; the merged result additionally carries a
        per-shard :class:`~repro.utils.timing.ShardTimingReport`.
        """
        return self._search("search", motif, delta, phi, collect=collect)

    def count_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
    ) -> SearchResult:
        """Count maximal instances without constructing them, sharded."""
        return self._search("count", motif, delta, phi)

    def top_k(
        self,
        motif: Motif,
        k: int,
        delta: Optional[float] = None,
    ) -> List[MotifInstance]:
        """The k maximal instances with the largest flow (Section 5),
        computed as a merge of per-shard top-k candidate lists."""
        effective_delta = motif.delta if delta is None else delta
        with _tracing.span(
            "query.top_k",
            motif=str(motif),
            k=k,
            backend="serial" if self.jobs == 1 else self.backend,
            shards=self.num_shards,
        ):
            shards = self.partition(effective_delta)
            # φ = 0: ranking by flow needs every structural match.
            (outputs,) = self._run_queries(
                shards, "top_k", [(motif, effective_delta, 0.0)], k=k
            )
            with _tracing.span("parallel.merge"):
                return _merge.merge_top_k(motif, shards, outputs, self._ts, k)

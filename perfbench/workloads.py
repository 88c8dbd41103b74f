"""Workloads, timed passes, correctness checks and the traced layer split.

Every workload is one seeded dataset on which a *pass* runs each
user-facing operation of the library once, in closed loop as a single
client:

``find``      a fresh :class:`FlowMotifEngine` per motif runs
              ``find_instances`` (the cold command-line cost, P1 included);
``sweep``     on that engine, ``count_instances`` over
              δ ∈ {δ/2, δ, 2δ} × φ ∈ {φ/2, φ};
``topk``      ``top_k(k=10)`` plus ``top_one_dp``, both served from the
              engine's cached P1 and timed :data:`TOPK_REPEATS` times, as
              they are the shortest operations and the noisiest;
``parallel``  one :class:`ParallelFlowMotifEngine` (process backend,
              ``jobs=2, shards=2``) runs find, count and top_k per motif;
``batch``     :class:`BatchRunner` (``jobs=2, shards=2``) over the same
              18-cell grid with ``collect=False``;
``stream``    the workload's events replayed in time order into a
              :class:`StreamingDetector` for M(3,2), 8 events per poll.

Every workload runs every phase, so each reports every end-to-end metric;
they differ in which layer dominates:

``query-sparse``  many series and few events each: P1 structural matching
                  and shard transport (``ColumnStore.to_graph`` in every
                  worker) dominate the queries; the stream phase replays the
                  first 4000 events and nearly all of it is appending to the
                  graph (``GrowableTimeSeriesGraph.append``) between reads;
``query-dense``   few series with many events each: P2 (enumeration,
                  counting, top-k, DP) dominates and transport is cheap; the
                  stream phase replays every event and polls cost as much as
                  appends.

All timing is taken from outside the library, around calls into each
layer's public functions: by the process's CPU clock for phases that run
in this process, by the wall clock for those that fan out to worker
processes (:data:`CLOCKS`). Between operations a
:class:`probe.SpeedProbe` sample is taken every :data:`PROBE_INTERVAL_S`,
and each operation's seconds are divided by the mean slowdown, on the same
clock, of the samples just before and just after it, so that the
end-to-end times are in seconds of an idle machine (see ``probe.py``).

A traced pass additionally runs each phase under
:func:`repro.obs.observe` and reads the library's own spans and counters;
layers without spans are timed by driving the sharded pipeline (partition
→ export → attach → view → materialize → search → merge) call by call.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    BatchRunner,
    ColumnStore,
    FlowMotifEngine,
    InteractionGraph,
    MotifConfig,
    ParallelFlowMotifEngine,
    StreamingDetector,
    obs,
    paper_motifs,
    partition_time_range,
)
from repro.datasets import DATASET_GENERATORS, bitcoin_like, passenger_like
from repro.parallel.merge import merge_search_results
from repro.parallel.partition import materialize_shard
from repro.parallel.worker import search_shard

import lifecycle
from probe import SpeedProbe

MOTIFS = ("M(3,2)", "M(3,3)", "M(4,4)A")
STREAM_MOTIF = "M(3,2)"
JOBS = SHARDS = 2
TOP_K = 10
STREAM_BATCH = 8
TOPK_REPEATS = 3
#: The timed phases of a pass. Each maps operation keys (a motif, a grid
#: cell, a stream batch index, ...) to the list of idle-machine seconds
#: each time the operation ran; see :func:`phase_seconds`.
TIMED_PHASES = ("find_s", "sweep_s", "topk_s", "parallel_s", "batch_s", "stream_s")
#: Seconds between speed-probe samples (a sample takes about 0.03 s).
PROBE_INTERVAL_S = 0.25
#: The clock each timed phase is read by.
CLOCKS = {
    "find_s": "cpu",
    "sweep_s": "cpu",
    "topk_s": "cpu",
    "parallel_s": "wall",
    "batch_s": "wall",
    "stream_s": "cpu",
}


@dataclass(frozen=True)
class Workload:
    """One seeded dataset plus the share of it the stream phase replays."""

    name: str
    generator: Callable[..., InteractionGraph]
    dataset: str
    scale: float
    smoke_scale: float
    #: Events replayed by the stream phase (a time-ordered prefix);
    #: None replays them all.
    stream_events: Optional[int]

    def generate(self, seed: int, smoke: bool) -> InteractionGraph:
        scale = self.smoke_scale if smoke else self.scale
        return self.generator(scale=scale, seed=seed)

    @property
    def delta(self) -> float:
        return DATASET_GENERATORS[self.dataset][1]

    @property
    def phi(self) -> float:
        return DATASET_GENERATORS[self.dataset][2]


#: Why each workload exists is recorded with it in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("query-sparse", bitcoin_like, "Bitcoin", 8.0, 0.5, 4000),
        Workload("query-dense", passenger_like, "Passenger", 2.0, 0.1, None),
    )
}


class Checks:
    """Counts checked operations; a wrong result or an error fails one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def instance_keys(instances) -> Counter:
    """The multiset of canonical instance keys (order-free comparison)."""
    return Counter(inst.canonical_key() for inst in instances)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class Context:
    """What a run keeps between passes: inputs and the serial reference."""

    workload: Workload
    ts: object
    motifs: list
    grid: List[Tuple[object, float, float]]
    stream_motif: object
    stream_events: List[Tuple]
    stream_reference: Counter
    probe: SpeedProbe
    #: Serial results of the first pass; later passes must repeat them.
    reference: Dict[str, dict] = field(default_factory=dict)


def setup(workload: Workload, seed: int, smoke: bool, repeats: int):
    """Build the dataset ``repeats`` times; returns the context and the
    per-repeat (generate, to_time_series, slowdown) triples: CPU seconds
    and the machine's CPU-clock slowdown just before the repeat."""
    probe = SpeedProbe()
    timings = []
    for _ in range(repeats):
        gc.collect()
        _, before = probe.sample()
        t0 = time.process_time()
        graph = workload.generate(seed, smoke)
        t1 = time.process_time()
        ts = graph.to_time_series()
        t2 = time.process_time()
        timings.append((t1 - t0, t2 - t1, before))
    delta, phi = workload.delta, workload.phi
    catalog = paper_motifs(delta, phi)
    motifs = [catalog[name] for name in MOTIFS]
    grid = [
        (motif, d, p)
        for motif in motifs
        for d in (delta / 2, delta, 2 * delta)
        for p in (phi / 2, phi)
    ]
    events = [
        (it.src, it.dst, it.time, it.flow) for it in graph.interactions_sorted()
    ]
    limit = 400 if smoke else workload.stream_events
    if limit is not None:
        events = events[:limit]
    # The stream's oracle: the offline search over exactly the replayed
    # events (computed once, outside every timed region).
    stream_motif = catalog[STREAM_MOTIF]
    offline = FlowMotifEngine(InteractionGraph.from_tuples(events))
    reference = instance_keys(offline.find_instances(stream_motif).instances)
    ctx = Context(
        workload, ts, motifs, grid, stream_motif, events, reference, probe
    )
    _warm_up(ctx)
    return ctx, timings


def _warm_up(ctx: Context) -> None:
    """Run each sharded and streaming entry point once on a tiny graph.

    The first process fan-out of a run imports the pool machinery, starts
    the stdlib resource tracker and faults in the pages every later fork
    shares; a long-lived caller pays that once, so no timed pass should.
    """
    events = ctx.stream_events[:300]
    tiny = InteractionGraph.from_tuples(events)
    motif = ctx.stream_motif
    with ParallelFlowMotifEngine(tiny, jobs=JOBS, shards=SHARDS) as engine:
        engine.find_instances(motif)
        engine.count_instances(motif)
        engine.top_k(motif, TOP_K)
    runner = BatchRunner(tiny, jobs=JOBS, shards=SHARDS)
    try:
        runner.run([MotifConfig(motif)], collect=False)
    finally:
        lifecycle.release_batch_runner(runner)
    detector = StreamingDetector(motif)
    for event in events:
        detector.add(*event)
    detector.flush()
    lifecycle.reap_children()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


class _Phases:
    """Per-phase observation handles of a traced pass (no-ops untraced)."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.observations: Dict[str, obs.Observation] = {}

    @contextmanager
    def observe(self, phase: str) -> Iterator[None]:
        if not self.traced:
            yield
            return
        observation = self.observations.get(phase)
        if observation is None:
            observation = self.observations[phase] = obs.observe()
        with observation:
            yield


def run_pass(ctx: Context, checks: Checks, traced: bool = False) -> dict:
    """Run every phase once.

    Returns ``out["ops"][phase][key]``, the idle-machine seconds of each
    run of an operation, for each of :data:`TIMED_PHASES`;
    ``out["slowdown"][clock]``, the mean slowdown the pass's probe samples
    read on each of the :data:`CLOCKS`; and, when ``traced``, the raw
    observations and call timings the layer split needs.
    """
    gc.collect()
    phases = _Phases(traced)
    out: dict = {
        "phases": phases,
        "ops": {phase: {} for phase in TIMED_PHASES},
        "probes": [],
        "runs": [],
    }
    _tick(ctx, out, force=True)
    serial = _serial_phases(ctx, checks, phases, out)
    _tick(ctx, out)
    _parallel_phase(ctx, checks, phases, out, serial)
    # The batch is one long wall-clock operation: probe right before it.
    _tick(ctx, out, force=True)
    _batch_phase(ctx, checks, phases, out, serial)
    _stream_phase(ctx, checks, out)
    _tick(ctx, out, force=True)
    for phase, key, seconds, before in out.pop("runs"):
        column = 0 if CLOCKS[phase] == "wall" else 1
        slowdown = (
            out["probes"][before][column] + out["probes"][before + 1][column]
        ) / 2
        out["ops"][phase].setdefault(key, []).append(seconds / slowdown)
    walls, cpus = zip(*out["probes"])
    out["slowdown"] = {
        "wall": statistics.fmean(walls),
        "cpu": statistics.fmean(cpus),
    }
    out["wall_s"] = sum(
        sum(samples) for ops in out["ops"].values() for samples in ops.values()
    )
    return out


def _tick(ctx: Context, out: dict, force: bool = False) -> None:
    """Sample the machine's slowdown if :data:`PROBE_INTERVAL_S` has passed
    since the last sample. Called only between timed operations."""
    if force or time.perf_counter() - out["last_probe"] >= PROBE_INTERVAL_S:
        out["probes"].append(ctx.probe.sample())
        out["last_probe"] = time.perf_counter()


def _record(out: dict, phase: str, key, seconds: float) -> None:
    """Keep one run's raw seconds and the index of the probe sample taken
    before it; :func:`run_pass` divides them by the slowdown around it."""
    out["runs"].append((phase, key, seconds, len(out["probes"]) - 1))


def _median_run(passes: Sequence[dict], phase: str, key) -> float:
    return statistics.median(
        seconds for p in passes for seconds in p["ops"][phase][key]
    )


def phase_seconds(passes: Sequence[dict], phase: str) -> float:
    """A phase's time over several passes: the sum over its operations of
    each operation's median over all its runs.

    Every pass repeats identical operations on identical inputs, so the
    per-operation median drops a stall that hit one run, and summing
    many independent medians averages out what remains.
    """
    keys = passes[0]["ops"][phase]
    return sum(_median_run(passes, phase, key) for key in keys)


def stream_rate(passes: Sequence[dict]) -> float:
    """Replayed events per second: the median over passes of each pass's
    rate over its whole replay, flush included."""
    return statistics.median(
        p["stream_events"] / sum(map(sum, p["ops"]["stream_s"].values()))
        for p in passes
    )


def stream_batch_latencies(passes: Sequence[dict]) -> List[float]:
    """Every stream batch's latency in every pass (flush excluded)."""
    return [
        seconds
        for p in passes
        for key, samples in p["ops"]["stream_s"].items()
        if key != "flush"
        for seconds in samples
    ]


def _serial_phases(ctx, checks, phases, out) -> Dict[str, dict]:
    delta, phi = ctx.workload.delta, ctx.workload.phi
    engines, finds = {}, {}
    topk_s = dp_s = 0.0
    for motif in ctx.motifs:
        _tick(ctx, out)
        with phases.observe("find"):
            t0 = time.process_time()
            engine = FlowMotifEngine(ctx.ts)
            finds[motif.name] = engine.find_instances(motif)
            _record(out, "find_s", motif.name, time.process_time() - t0)
        engines[motif.name] = engine
    counts: Dict[Tuple, int] = {}
    for motif, d, p in ctx.grid:
        engine = engines[motif.name]
        _tick(ctx, out)
        with phases.observe("sweep"):
            t0 = time.process_time()
            counts[(motif.name, d, p)] = engine.count_instances(
                motif, delta=d, phi=p
            ).count
            _record(out, "sweep_s", (motif.name, d, p), time.process_time() - t0)
    tops, best = {}, {}
    for motif in ctx.motifs:
        engine = engines[motif.name]
        for _ in range(TOPK_REPEATS):
            _tick(ctx, out)
            with phases.observe("topk"):
                t0 = time.process_time()
                tops[motif.name] = [i.flow for i in engine.top_k(motif, TOP_K)]
                t1 = time.process_time()
                best[motif.name] = engine.top_one_dp(motif).flow
                t2 = time.process_time()
            _record(out, "topk_s", (motif.name, "top_k"), t1 - t0)
            _record(out, "topk_s", (motif.name, "dp"), t2 - t1)
            topk_s += t1 - t0
            dp_s += t2 - t1
    out["layer_calls"] = {
        "core.topk.s": topk_s / TOPK_REPEATS,
        "core.dp.s": dp_s / TOPK_REPEATS,
    }

    serial: Dict[str, dict] = {}
    for motif in ctx.motifs:
        name = motif.name
        found = finds[name]
        flows = sorted((i.flow for i in found.instances), reverse=True)
        top = tops[name]
        ranked = [f for f in top if f >= phi]
        now = {
            "keys": instance_keys(found.instances),
            "count": found.count,
            "counts": {k: v for k, v in counts.items() if k[0] == name},
            "top": top,
            "best": best[name],
        }
        # Four algorithms answer overlapping questions; they must agree.
        checks.check(
            found.count == len(found.instances)
            and found.count == now["counts"][(name, delta, phi)],
            f"serial find vs count_instances ({name})",
        )
        checks.check(
            ranked == flows[: len(ranked)]
            and best[name] == (top[0] if top else 0.0),
            f"serial top_k vs find vs top_one_dp ({name})",
        )
        ctx.reference.setdefault(name, now)
        checks.check(
            ctx.reference[name] == now, f"serial results repeat ({name})"
        )
        serial[name] = now
    out["useful"] = sum(
        len({i.vertex_map for i in found.instances}) for found in finds.values()
    )
    return serial


def _parallel_phase(ctx, checks, phases, out, serial) -> None:
    results = []
    with phases.observe("parallel"):
        t_open = time.perf_counter()
        with ParallelFlowMotifEngine(
            ctx.ts, jobs=JOBS, shards=SHARDS, backend="process"
        ) as engine:
            _record(out, "parallel_s", "open", time.perf_counter() - t_open)
            for motif in ctx.motifs:
                _tick(ctx, out)
                t0 = time.perf_counter()
                found = engine.find_instances(motif)
                t1 = time.perf_counter()
                counted = engine.count_instances(motif)
                t2 = time.perf_counter()
                top = engine.top_k(motif, TOP_K)
                t3 = time.perf_counter()
                _record(out, "parallel_s", (motif.name, "find"), t1 - t0)
                _record(out, "parallel_s", (motif.name, "count"), t2 - t1)
                _record(out, "parallel_s", (motif.name, "top_k"), t3 - t2)
                results.append((motif.name, found, counted, top))
            _tick(ctx, out)
            t0 = time.perf_counter()
        _record(out, "parallel_s", "close", time.perf_counter() - t0)
    checks.check(
        lifecycle.reap_children() == 0, "pool workers exit after the parallel phase"
    )
    for name, found, counted, top in results:
        ref = serial[name]
        checks.check(
            instance_keys(found.instances) == ref["keys"]
            and found.count == ref["count"],
            f"parallel find vs serial ({name})",
        )
        checks.check(
            counted.count == ref["count"], f"parallel count vs serial ({name})"
        )
        checks.check(
            [i.flow for i in top] == ref["top"],
            f"parallel top_k vs serial ({name})",
        )
    out["shard_imbalance"] = max(
        result.shard_timings.imbalance_ratio
        for _, found, counted, _ in results
        for result in (found, counted)
        if result.shard_timings is not None
    )


def _batch_phase(ctx, checks, phases, out, serial) -> None:
    configs = [MotifConfig(motif, d, p) for motif, d, p in ctx.grid]
    with phases.observe("batch"):
        t0 = time.perf_counter()
        runner = BatchRunner(
            ctx.ts, jobs=JOBS, shards=SHARDS, backend="process"
        )
        try:
            results = runner.run(configs, collect=False)
        finally:
            lifecycle.release_batch_runner(runner)
        _record(out, "batch_s", "run", time.perf_counter() - t0)
    checks.check(
        lifecycle.reap_children() == 0, "pool workers exit after the batch phase"
    )
    for (motif, d, p), result in zip(ctx.grid, results):
        checks.check(
            result.count == serial[motif.name]["counts"][(motif.name, d, p)],
            f"batch count vs serial ({motif.name}, delta={d}, phi={p})",
        )
    out["batch_stats"] = dict(runner.last_stats)


def _stream_phase(ctx, checks, out) -> None:
    events = ctx.stream_events
    detector = StreamingDetector(ctx.stream_motif)
    emitted = []
    add_s = poll_s = 0.0
    for lo in range(0, len(events), STREAM_BATCH):
        _tick(ctx, out)
        t0 = time.process_time()
        for src, dst, when, flow in events[lo : lo + STREAM_BATCH]:
            detector.add(src, dst, when, flow)
        t1 = time.process_time()
        emitted.extend(detector.poll())
        t2 = time.process_time()
        _record(out, "stream_s", lo, t2 - t0)
        add_s += t1 - t0
        poll_s += t2 - t1
    _tick(ctx, out)
    t0 = time.process_time()
    emitted.extend(detector.flush())
    t1 = time.process_time()
    _record(out, "stream_s", "flush", t1 - t0)
    poll_s += t1 - t0
    checks.check(
        instance_keys(emitted) == ctx.stream_reference,
        "stream emissions vs offline find_instances",
    )
    out["stream_events"] = len(events)
    out["stream_add_s"] = add_s
    out["stream_poll_s"] = poll_s
    out["stream_metrics"] = detector.metrics().snapshot()


# ----------------------------------------------------------------------
# Layers of a traced pass
# ----------------------------------------------------------------------


def _sum_named(snapshot_part: dict, name: str) -> float:
    """Sum a metric over all its label sets (keys ``name`` or ``name{..}``)."""
    return sum(
        value
        for key, value in snapshot_part.items()
        if key == name or key.startswith(name + "{")
    )


def _span_total(spans: Sequence[dict], prefix: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"].startswith(prefix))


def span_coverage(spans: Sequence[dict]) -> Tuple[float, float]:
    """(seconds of parent spans covered by their children, seconds of
    parent spans) over every span that has at least one child."""
    children: Dict[str, List[dict]] = {}
    for s in spans:
        if s.get("parent_id") is not None:
            children.setdefault(s["parent_id"], []).append(s)
    covered = total = 0.0
    for parent in spans:
        kids = children.get(parent["span_id"])
        if not kids:
            continue
        start, end = parent["start"], parent["end"]
        total += end - start
        reach = start
        for kid in sorted(kids, key=lambda k: k["start"]):
            lo, hi = max(kid["start"], reach), min(kid["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
    return covered, total


def _worker_split(spans: Sequence[dict]) -> dict:
    """Shard-task time, its P1/P2 children, and dispatch overhead (query
    wall minus its slowest shard's P1+P2) over sharded queries."""
    by_parent: Dict[str, List[dict]] = {}
    for s in spans:
        by_parent.setdefault(s.get("parent_id"), []).append(s)
    task_s = p1_s = p2_s = overhead_s = 0.0
    for query in spans:
        tasks = [
            t
            for t in by_parent.get(query["span_id"], [])
            if t["name"] == "worker.shard_task"
        ]
        if not tasks:
            continue
        critical = 0.0
        for task in tasks:
            task_s += task["end"] - task["start"]
            work = 0.0
            for kid in by_parent.get(task["span_id"], []):
                seconds = kid["end"] - kid["start"]
                if kid["name"].startswith("p1."):
                    p1_s += seconds
                elif kid["name"].startswith("p2."):
                    p2_s += seconds
                work += seconds
            critical = max(critical, work)
        overhead_s += (query["end"] - query["start"]) - critical
    return {
        "worker.p1_s": p1_s,
        "worker.p2_s": p2_s,
        "worker.unattributed_s": task_s - p1_s - p2_s,
        "parallel.dispatch_overhead_s": overhead_s,
    }


def layer_metrics(ctx: Context, out: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    seen = out["phases"].observations
    spans = {phase: o.spans() for phase, o in seen.items()}
    snaps = {phase: o.snapshot() for phase, o in seen.items()}
    matches = _sum_named(snaps["find"]["counters"], "p1.matches")
    topk_counters = snaps["topk"]["counters"]
    sharded = spans["parallel"] + spans["batch"]
    faults = degradations = 0.0
    for phase in ("parallel", "batch"):
        faults += _sum_named(snaps[phase]["counters"], "resilience.faults")
        degradations += _sum_named(
            snaps[phase]["counters"], "resilience.degradations"
        )
    stream = out["stream_metrics"]
    covered = total = 0.0
    for phase_spans in spans.values():
        c, t = span_coverage(phase_spans)
        covered += c
        total += t
    layers = {
        "core.matching.p1_s": _span_total(spans["find"], "p1.match"),
        "core.matching.matches": matches,
        "core.matching.useful_ratio": out["useful"] / matches if matches else 0.0,
        "core.enumeration.p2_s": _span_total(spans["find"], "p2.enumerate"),
        "core.counting.s": _span_total(spans["sweep"], "p2.count"),
        "p2.dp.cells": _sum_named(topk_counters, "p2.dp.cells") / TOPK_REPEATS,
        "p2.dp.windows_scanned": (
            _sum_named(topk_counters, "p2.dp.windows_scanned") / TOPK_REPEATS
        ),
        "parallel.shard_imbalance": out["shard_imbalance"],
        "parallel.faults": faults,
        "parallel.degradations": degradations,
        "batch.p1_s": out["batch_stats"]["p1_seconds"],
        "batch.p2_s": out["batch_stats"]["p2_seconds"],
        "batch.shard_imbalance": out["batch_stats"]["shard_imbalance_ratio"],
        "stream.add_s": out["stream_add_s"],
        "stream.poll_s": out["stream_poll_s"],
        "stream.pairs": _sum_named(stream["gauges"], "stream.pairs"),
        "stream.matches": _sum_named(stream["gauges"], "stream.matches"),
        "p1.expansions": _sum_named(stream["counters"], "p1.expansions"),
        "stream.heap_pushes": _sum_named(stream["counters"], "stream.heap_pushes"),
        "obs.span_coverage": covered / total if total else 1.0,
    }
    layers.update(out["layer_calls"])
    layers.update(_worker_split(sharded))
    return layers


def pipeline_metrics(ctx: Context, checks: Checks) -> Dict[str, float]:
    """Drive the sharded search through its public functions one call at
    a time, timing each layer the library has no span for, and check the
    merged result against the serial engine's."""
    delta, phi = ctx.workload.delta, ctx.workload.phi
    timings = dict.fromkeys(
        (
            "parallel.partition_s",
            "transport.export_s",
            "transport.attach_s",
            "transport.view_s",
            "transport.materialize_s",
            "parallel.merge_s",
        ),
        0.0,
    )
    t0 = time.perf_counter()
    shards = partition_time_range(ctx.ts, SHARDS, delta, materialize=False)
    t1 = time.perf_counter()
    export = ColumnStore.from_graph(ctx.ts).to_shared()
    t2 = time.perf_counter()
    timings["parallel.partition_s"] = t1 - t0
    timings["transport.export_s"] = t2 - t1
    try:
        t0 = time.perf_counter()
        attached = ColumnStore.attach(export.shm_name)
        t1 = time.perf_counter()
        timings["transport.attach_s"] = t1 - t0
        try:
            view = attached.to_graph()
            timings["transport.view_s"] = time.perf_counter() - t1
            for motif in ctx.motifs:
                t0 = time.perf_counter()
                local = [materialize_shard(view, s.bounds) for s in shards]
                t1 = time.perf_counter()
                outputs = [search_shard(s, motif, delta, phi) for s in local]
                t2 = time.perf_counter()
                merged = merge_search_results(motif, shards, outputs, ctx.ts)
                t3 = time.perf_counter()
                del local
                timings["transport.materialize_s"] += t1 - t0
                timings["parallel.merge_s"] += t3 - t2
                checks.check(
                    instance_keys(merged.instances)
                    == ctx.reference[motif.name]["keys"],
                    f"hand-driven sharded pipeline vs serial ({motif.name})",
                )
            # The views pin the shared mapping; drop them before closing.
            del view
            gc.collect()
        finally:
            attached.close()
    finally:
        export.close(unlink=True)
    return timings


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]

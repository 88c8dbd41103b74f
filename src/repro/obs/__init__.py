"""``repro.obs`` — dependency-free observability for the motif engines.

Five pieces, one activation model:

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  :class:`MetricsRegistry` with deterministic snapshots and associative
  merge (per-worker registries fold into one report in any order).
* :mod:`repro.obs.tracing` — ``span()`` context managers with explicit
  parent ids; serialized span lists cross process boundaries and
  stitch back into a single trace tree.
* :mod:`repro.obs.profiler` — sampling wall-clock profiler attributing
  collapsed stacks to the ambient trace span; per-task profiles ride
  the shard reply home exactly like metrics snapshots do.
* :mod:`repro.obs.flight` — bounded in-memory flight recorder dumping
  a JSONL diagnostic bundle on shard retries, degradations and
  SIGTERM.
* :mod:`repro.obs.sink` — JSON-lines emission plus Prometheus text
  exposition and human renderings.

Observability is **off by default** and costs one predicate per
instrumented call site when off (hot loops are never instrumented
per-iteration; kernel counters are computed arithmetically per call).
Turn it on around any region with::

    from repro import obs

    with obs.observe(profile=True) as ob:
        engine.find_instances(motif, delta)
    print(ob.render_text())          # metrics table
    print(ob.render_trace())         # stitched span tree
    print(ob.render_profile())       # span-attributed hot frames

Activation is thread-local: concurrent observed regions on different
threads (e.g. engines queried from two user threads) do not see each
other's registries.
"""

from __future__ import annotations

from typing import List, Optional

from . import flight as flight
from . import metrics as metrics
from . import profiler as profiler
from . import tracing as tracing
from .flight import FlightRecorder
from .metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    render_prometheus,
    render_text,
)
from .profiler import ProfileReport, Profiler
from .sink import JsonlSink, load_observations, load_profiles, read_jsonl
from .tracing import (
    Span,
    TraceContext,
    Tracer,
    render_trace_tree,
    span,
    span_totals,
    stitch_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "JsonlSink",
    "MetricsRegistry",
    "Observation",
    "ProfileReport",
    "Profiler",
    "Span",
    "TraceContext",
    "Tracer",
    "flight",
    "load_observations",
    "load_profiles",
    "metrics",
    "observe",
    "profiler",
    "read_jsonl",
    "render_prometheus",
    "render_text",
    "render_trace_tree",
    "span",
    "span_totals",
    "stitch_trace",
    "tracing",
]


class Observation:
    """Handle for one observed region: registry, tracer and profiler.

    Usable as a context manager (see :func:`observe`); the collected
    data stays readable after exit.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace: bool = True,
        profile: bool = False,
        profile_hz: float = profiler.DEFAULT_HZ,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else (
            Tracer() if trace else None
        )
        self.profiler: Optional[Profiler] = (
            Profiler(hz=profile_hz) if profile else None
        )
        self._prev_registry: Optional[MetricsRegistry] = None
        self._prev_tracer: Optional[Tracer] = None
        self._prev_profiler: Optional[Profiler] = None

    def __enter__(self) -> "Observation":
        self._prev_registry = metrics.activate(self.registry)
        if self.tracer is not None:
            self._prev_tracer = tracing.activate(self.tracer)
        if self.profiler is not None:
            self._prev_profiler = profiler.activate(self.profiler)
            self.profiler.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.profiler is not None:
            self.profiler.stop()
            profiler.activate(self._prev_profiler)
        metrics.activate(self._prev_registry)
        if self.tracer is not None:
            tracing.activate(self._prev_tracer)

    # -- conveniences ----------------------------------------------------

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def spans(self) -> List[dict]:
        return self.tracer.spans() if self.tracer is not None else []

    def profile(self) -> Optional[ProfileReport]:
        """The aggregated profile, or None when profiling was off."""
        return self.profiler.report if self.profiler is not None else None

    def render_text(self) -> str:
        return render_text(self.registry.snapshot())

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry.snapshot())

    def render_trace(self) -> str:
        return render_trace_tree(stitch_trace(self.spans()))

    def render_profile(self, n: int = 15) -> str:
        report = self.profile()
        return report.render_text(n) if report is not None else ""

    def write_jsonl(self, path: str) -> None:
        """Dump metrics snapshot + spans (+ profile) to a JSONL sink."""
        with JsonlSink(path) as sink:
            sink.emit_metrics(self.snapshot())
            sink.emit_spans(self.spans())
            report = self.profile()
            if report is not None and report.samples:
                sink.emit_profile(report.to_dict())


def observe(
    trace: bool = True,
    profile: bool = False,
    profile_hz: float = profiler.DEFAULT_HZ,
) -> Observation:
    """Activate observability for a ``with`` region on this thread.

    ``trace=False`` collects metrics only (no span bookkeeping) — used
    by benchmarks measuring counter overhead in isolation.
    ``profile=True`` additionally arms a sampling profiler at
    ``profile_hz`` whose samples attribute to the region's spans.
    """
    return Observation(trace=trace, profile=profile, profile_hz=profile_hz)

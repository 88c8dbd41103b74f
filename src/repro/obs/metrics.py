"""Dependency-free metrics registry with deterministic merge semantics.

One :class:`MetricsRegistry` holds counters, gauges, and fixed-bucket
histograms, keyed by a metric name plus an optional sorted label set.
Registries are designed around the parallel engine's fan-out model:

* **per-worker registries** — each shard task, in a worker process or
  inline, records into its own registry, snapshots it, and ships the
  plain-dict snapshot back with its results;
* **associative merge** — :meth:`MetricsRegistry.merge` folds snapshots
  together with order-independent semantics (counters and histogram
  buckets *sum*, gauges take the *max*), so merging per-worker snapshots
  in any order renders the identical report (property-tested in
  ``tests/obs/test_metrics.py``);
* **deterministic rendering** — :meth:`snapshot`,
  :func:`render_prometheus`, and :func:`render_text` emit metrics in
  sorted (name, labels) order, independent of insertion order.

Activation is *per thread* and explicitly scoped: instrumented hot paths
ask :func:`active` for the current registry and do nothing when it is
``None`` (the default). Disabled mode therefore costs one function call
and one attribute read per instrumented *call site* — never per DP cell
or per event — and allocates nothing (asserted by the zero-overhead
tests and the ``bench_columnar_store`` overhead smoke).

>>> registry = MetricsRegistry()
>>> registry.counter("p1.matches").inc(3)
>>> registry.gauge("parallel.shard_imbalance_ratio").set(1.25)
>>> sorted(registry.snapshot()["counters"].items())
[('p1.matches', 3)]
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "active",
    "activate",
    "histogram_quantile",
    "render_prometheus",
    "render_text",
]

#: Default histogram boundaries — a geometric grid wide enough for both
#: counts (events, DP cells) and sub-second latencies. Histograms created
#: with the same name must share boundaries or merging raises.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0
)

#: Canonical label rendering: ``name{a=1,b=x}``. An empty label set
#: renders as the bare name. Used as the snapshot dict key, so snapshots
#: are plain JSON objects.
_LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, object]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(text: str) -> str:
    """Backslash-escape the key separators so label values may contain
    them (motif names like ``M(3,2)`` carry literal commas)."""
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def _render_key(name: str, labels: _LabelItems) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{_escape(k)}={_escape(v)}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def split_key(key: str) -> Tuple[str, _LabelItems]:
    """Invert :func:`_render_key` (used by the Prometheus renderer)."""
    if not key.endswith("}") or "{" not in key:
        return key, ()
    name, _, rest = key.partition("{")
    items: List[Tuple[str, str]] = []
    current_key: Optional[str] = None
    buf: List[str] = []
    chars = iter(rest[:-1])
    for ch in chars:
        if ch == "\\":
            buf.append(next(chars, ""))
        elif ch == "=" and current_key is None:
            current_key = "".join(buf)
            buf = []
        elif ch == ",":
            if current_key is not None:
                items.append((current_key, "".join(buf)))
            current_key = None
            buf = []
        else:
            buf.append(ch)
    if current_key is not None:
        items.append((current_key, "".join(buf)))
    return name, tuple(items)


class Counter:
    """Monotonically increasing count. Merge semantics: sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        self.value += amount


class Gauge:
    """Point-in-time value. Merge semantics: max (associative, so the
    merged report is order-independent; suits high-water readings like
    reorder-buffer depth or shard imbalance)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-boundary histogram. Merge semantics: per-bucket sum.

    ``buckets`` are upper bounds of the finite buckets; one implicit
    overflow bucket catches everything above the last boundary.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"bucket boundaries must be sorted and distinct: {buckets!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric creation is guarded by a lock (several threads may lazily
    create the same metric); *updates* are plain attribute writes — the
    intended concurrency model is one registry per worker, merged
    afterwards, exactly like the engine's per-shard timing reports.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelItems], Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        key = (name, _label_items(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``name`` + ``labels``."""
        key = (name, _label_items(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram registered under ``name`` + ``labels``.

        The first creation fixes the bucket boundaries; later calls with
        different ``buckets`` raise (mixed boundaries cannot merge).
        """
        key = (name, _label_items(labels))
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(buckets))
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with boundaries "
                f"{metric.buckets}, got {tuple(buckets)!r}"
            )
        return metric

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic plain-dict view (JSON-safe, sorted keys).

        The snapshot is the transport format: workers ship it across the
        process boundary, sinks serialize it, and :meth:`merge` folds
        snapshots into a registry.
        """
        return {
            "counters": {
                _render_key(*key): metric.value
                for key, metric in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(*key): metric.value
                for key, metric in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(*key): {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
                for key, metric in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> "MetricsRegistry":
        """Fold one snapshot into this registry (associative, in place).

        Counters and histogram buckets sum; gauges keep the maximum.
        Returns ``self`` so merges chain.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = split_key(key)
            self.counter(name, **dict(labels)).value += value
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = split_key(key)
            gauge = self.gauge(name, **dict(labels))
            if value > gauge.value:
                gauge.value = value
        for key, data in snapshot.get("histograms", {}).items():
            name, labels = split_key(key)
            hist = self.histogram(
                name, buckets=data["buckets"], **dict(labels)
            )
            if len(hist.counts) != len(data["counts"]):
                raise ValueError(
                    f"histogram {key!r} bucket count mismatch on merge"
                )
            for i, c in enumerate(data["counts"]):
                hist.counts[i] += c
            hist.sum += data["sum"]
            hist.count += data["count"]
        return self

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """A fresh registry holding exactly one snapshot's contents."""
        return cls().merge(snapshot)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current contents."""
        return render_prometheus(self.snapshot())

    def render_text(self) -> str:
        """Human-readable aligned listing of the current contents."""
        return render_text(self.snapshot())


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------


class _ThreadState(threading.local):
    registry: Optional[MetricsRegistry] = None


_STATE = _ThreadState()


def active() -> Optional[MetricsRegistry]:
    """The registry instrumented code should record into (None = off).

    This is *the* no-op gate: every instrumented call site starts with
    ``reg = metrics.active()`` / ``if reg is None: skip`` — no metric
    objects exist and no work happens while observability is disabled.
    """
    return _STATE.registry


def activate(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Swap the current thread's active registry; returns the previous one.

    Prefer the scoped :func:`repro.obs.observe` context manager; this
    low-level hook exists for the worker trampoline, which must activate
    and restore around a single task.
    """
    previous = _STATE.registry
    _STATE.registry = registry
    return previous


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus exposition."""
    return "".join(
        ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
    )


def _prom_labels(labels: _LabelItems) -> str:
    if not labels:
        return ""

    def quote(value: str) -> str:
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n")
        )
        return f'"{escaped}"'

    inner = ",".join(f"{_prom_name(k)}={quote(v)}" for k, v in labels)
    return f"{{{inner}}}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (v0.0.4) of one snapshot.

    Counters gain the conventional ``_total`` suffix, dots become
    underscores, histograms expose cumulative ``_bucket{le=...}`` series
    plus ``_sum``/``_count``. Output order is deterministic.
    """
    lines: List[str] = []
    seen_types: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(snapshot.get("counters", {})):
        name, labels = split_key(key)
        prom = _prom_name(name)
        if not prom.endswith("_total"):
            prom += "_total"
        type_line(prom, "counter")
        value = snapshot["counters"][key]
        lines.append(f"{prom}{_prom_labels(labels)} {_format_value(value)}")
    for key in sorted(snapshot.get("gauges", {})):
        name, labels = split_key(key)
        prom = _prom_name(name)
        type_line(prom, "gauge")
        value = snapshot["gauges"][key]
        lines.append(f"{prom}{_prom_labels(labels)} {_format_value(value)}")
    for key in sorted(snapshot.get("histograms", {})):
        name, labels = split_key(key)
        prom = _prom_name(name)
        type_line(prom, "histogram")
        data = snapshot["histograms"][key]
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            le = _format_value(float(bound))
            items = labels + (("le", le),)
            lines.append(f"{prom}_bucket{_prom_labels(items)} {cumulative}")
        cumulative += data["counts"][-1]
        items = labels + (("le", "+Inf"),)
        lines.append(f"{prom}_bucket{_prom_labels(items)} {cumulative}")
        lines.append(
            f"{prom}_sum{_prom_labels(labels)} {_format_value(data['sum'])}"
        )
        lines.append(f"{prom}_count{_prom_labels(labels)} {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def histogram_quantile(data: dict, q: float) -> float:
    """Estimate quantile ``q`` of a snapshot histogram by interpolation.

    The Prometheus estimator: find the bucket the ``q``-th observation
    lands in, then interpolate linearly between its lower and upper
    bound (the first finite bucket's lower bound is 0). Observations in
    the overflow bucket clamp to the last finite boundary — the
    estimate is then a lower bound, exactly as in PromQL.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    buckets = data["buckets"]
    counts = data["counts"]
    total = data["count"]
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, bound in enumerate(buckets):
        prev_cumulative = cumulative
        cumulative += counts[i]
        if cumulative >= rank:
            lower = buckets[i - 1] if i > 0 else 0.0
            in_bucket = counts[i]
            if in_bucket == 0:
                return float(bound)
            frac = (rank - prev_cumulative) / in_bucket
            return lower + (float(bound) - lower) * min(max(frac, 0.0), 1.0)
    return float(buckets[-1])


def _quantile_suffix(data: dict) -> str:
    if not data["count"]:
        return ""
    parts = [
        f"p{int(q * 100)}={histogram_quantile(data, q):g}"
        for q in (0.50, 0.95, 0.99)
    ]
    return " " + " ".join(parts)


def render_text(snapshot: dict) -> str:
    """Aligned human listing of one snapshot (the ``--trace`` CLI view)."""
    rows: List[Tuple[str, str]] = []
    for key in sorted(snapshot.get("counters", {})):
        rows.append((key, _format_value(snapshot["counters"][key])))
    for key in sorted(snapshot.get("gauges", {})):
        rows.append((key, _format_value(snapshot["gauges"][key])))
    for key in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][key]
        mean = data["sum"] / data["count"] if data["count"] else 0.0
        rows.append(
            (
                key,
                f"count={data['count']} sum={data['sum']:g} mean={mean:g}"
                + _quantile_suffix(data),
            )
        )
    if not rows:
        return "(no metrics recorded)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)

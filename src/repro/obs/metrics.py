"""Dependency-free metrics registry with deterministic merge semantics.

One :class:`MetricsRegistry` holds counters and gauges, keyed by a
metric name plus an optional sorted label set. Registries are designed
around the parallel engine's fan-out model:

* **per-worker registries** — each shard task, in a worker process or
  inline, records into its own registry, snapshots it, and ships the
  plain-dict snapshot back with its results;
* **associative merge** — :meth:`MetricsRegistry.merge` folds snapshots
  together with order-independent semantics (counters *sum*, gauges take
  the *max*), so merging per-worker snapshots in any order renders the
  identical report (property-tested in ``tests/obs/test_metrics.py``);
* **deterministic rendering** — :meth:`snapshot`,
  :func:`render_prometheus`, and :func:`render_text` emit metrics in
  sorted (name, labels) order, independent of insertion order.

Instrumented hot paths ask :func:`active` for the registry of the
observation active on this thread (:mod:`repro.obs.slot`) and do nothing
when it is ``None`` (the default). Disabled mode therefore costs one
function call and one test of an empty dict per instrumented *call
site* — never per DP cell or per event — and allocates nothing (asserted
by the zero-overhead tests and the ``bench_columnar_store`` overhead
smoke).

>>> registry = MetricsRegistry()
>>> registry.counter("p1.matches").inc(3)
>>> registry.gauge("parallel.shard_imbalance_ratio").set(1.25)
>>> sorted(registry.snapshot()["counters"].items())
[('p1.matches', 3)]
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Tuple

from .slot import _SLOTS, current

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "active",
    "render_prometheus",
    "render_text",
]

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


class MetricsRegistry:
    """A named collection of counters and gauges.

    Metric creation is guarded by a lock (several threads may lazily
    create the same metric); *updates* are plain attribute writes — the
    intended concurrency model is one registry per worker, merged
    afterwards, exactly like the engine's per-shard timing reports.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelItems], Gauge] = {}
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
        }

    def merge(self, snapshot: dict) -> "MetricsRegistry":
        """Fold one snapshot into this registry (associative, in place).

        Counters sum; gauges keep the maximum. Any other section (the
        ``histograms`` of older sink files) is ignored. Returns ``self``
        so merges chain.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = split_key(key)
            self.counter(name, **dict(labels)).value += value
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = split_key(key)
            gauge = self.gauge(name, **dict(labels))
            if value > gauge.value:
                gauge.value = value
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


def active() -> Optional[MetricsRegistry]:
    """The registry instrumented code should record into (None = off).

    This is *the* no-op gate: every instrumented call site starts with
    ``reg = metrics.active()`` / ``if reg is None: skip`` — no metric
    objects exist and no work happens while observability is disabled.
    """
    if not _SLOTS:
        return None
    observation = current()
    return observation.registry if observation is not None else None


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

    Counters gain the conventional ``_total`` suffix and dots become
    underscores. Output order is deterministic.
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
    return "\n".join(lines) + ("\n" if lines else "")


def render_text(snapshot: dict) -> str:
    """Aligned human listing of one snapshot (the ``--trace`` CLI view)."""
    rows: List[Tuple[str, str]] = []
    for key in sorted(snapshot.get("counters", {})):
        rows.append((key, _format_value(snapshot["counters"][key])))
    for key in sorted(snapshot.get("gauges", {})):
        rows.append((key, _format_value(snapshot["gauges"][key])))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)

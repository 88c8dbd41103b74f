"""Pluggable emission for observability data.

The wire format is JSON lines: one JSON object per line, each tagged
with a ``"kind"`` field —

``{"kind": "metrics", "snapshot": {...}}``
    A :meth:`repro.obs.metrics.MetricsRegistry.snapshot` payload.

``{"kind": "span", ...span fields...}``
    One serialized :class:`repro.obs.tracing.Span` (``to_dict`` form).

``{"kind": "profile", "profile": {...}}``
    A :meth:`repro.obs.profiler.ProfileReport.to_dict` payload
    (collapsed stacks + span attribution), merged associatively by
    :func:`load_profiles`.

Files in this format are what ``repro metrics <file.jsonl>`` reads:
metrics snapshots are merged associatively, spans are stitched into a
trace tree, and the result renders as Prometheus exposition or a human
table. Because merge is associative, concatenating sink files from
several runs (or several workers) and re-reading is always valid.
Records of any other kind (older files hold ``"event"`` lines) are
skipped.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from . import metrics as _metrics
from .profiler import ProfileReport

__all__ = ["JsonlSink", "read_jsonl", "load_observations", "load_profiles"]


class JsonlSink:
    """Writes observability records as JSON lines to a path or stream."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def emit_metrics(self, snapshot: dict) -> None:
        self._write({"kind": "metrics", "snapshot": snapshot})

    def emit_spans(self, span_dicts: Iterable[dict]) -> None:
        for d in span_dicts:
            record = dict(d)
            record["kind"] = "span"
            self._write(record)

    def emit_profile(self, profile: dict) -> None:
        """One serialized :class:`~repro.obs.profiler.ProfileReport`."""
        self._write({"kind": "profile", "profile": profile})

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl(path: str) -> List[dict]:
    """All records from a JSON-lines sink file (blank lines skipped)."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_observations(paths: Iterable[str]) -> Tuple[dict, List[dict]]:
    """Merge one or more sink files into ``(snapshot, spans)``.

    Metrics snapshots from every file merge into one (order-independent
    by the registry's associativity guarantee); spans simply concatenate.
    """
    registry: Optional[_metrics.MetricsRegistry] = None
    spans: List[dict] = []
    for path in paths:
        for record in read_jsonl(path):
            kind = record.get("kind")
            if kind == "metrics":
                snap = record.get("snapshot", {})
                if registry is None:
                    registry = _metrics.MetricsRegistry.from_snapshot(snap)
                else:
                    registry.merge(snap)
            elif kind == "span":
                span = {k: v for k, v in record.items() if k != "kind"}
                spans.append(span)
    snapshot: Dict[str, dict] = (
        registry.snapshot() if registry is not None
        else {"counters": {}, "gauges": {}}
    )
    return snapshot, spans


def load_profiles(paths: Iterable[str]) -> ProfileReport:
    """Merge every ``profile`` record across sink files into one report.

    Profile merge is associative (collapsed-stack counts add), so worker
    files and repeated runs combine the same way metrics snapshots do.
    Returns an empty report when no profile records are present.
    """
    merged: Optional[ProfileReport] = None
    for path in paths:
        for record in read_jsonl(path):
            if record.get("kind") != "profile":
                continue
            report = ProfileReport.from_dict(record.get("profile", {}))
            if merged is None:
                merged = report
            else:
                merged.merge(report)
    return merged if merged is not None else ProfileReport()

"""Serialize and restore :class:`~repro.core.streaming.StreamingDetector`.

A checkpoint is a JSON-safe ``dict`` capturing everything the detector's
exactly-once contract depends on:

* the query — motif spanning path, δ, φ, reorder slack and late policy;
* the graph — every per-pair series as ``[src, dst, times, flows]``;
* per-match emission cursors — ``(last_anchor, prev_lam)`` keyed by the
  structural match's full identity (vertex map + edge pairs), the
  skip-rule state that makes resumed emissions identical to an
  uninterrupted run;
* the reorder buffer — pending events still ahead of the watermark's
  slack frontier, with their arrival sequence numbers;
* the out-buffer — instances finalized but not yet returned by a poll
  (their cursors have already moved, so dropping them would lose
  emissions forever);
* counters — watermark, emitted count, flushed flag.

The structural match *set* is not stored: it is a pure function of the
graph, so :func:`restore_detector` re-derives it and then overlays the
saved cursors (:meth:`IncrementalMatcher.apply_progress`). Emission
content is therefore bit-identical after restore; only intra-poll
ordering may differ (heap ties break on rediscovery order). Deadlines and
the parked tables are not stored either: they are a function of the
cursors and the graph, and the overlay recomputes them, so the format
did not change when deadlines started to come from ``R(e_m)``.

Older version-1 checkpoints also carry ``mode`` and ``rebuilds`` fields
(from a since-removed rebuild-on-poll detector mode); both are optional
and ignored, and such a checkpoint resumes on the incremental detector —
the per-match cursors were always stored in the same form.

``json.dumps``-safe by construction: ``±inf`` watermarks and anchors are
mapped to ``None`` (JSON has no infinities), and node labels must be
strings, ints, floats or bools — anything else raises
:class:`CheckpointError` at checkpoint time rather than producing a file
that cannot round-trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

FORMAT = "repro-streaming-checkpoint"
VERSION = 1

_NEG_INF = float("-inf")

#: Node label types that survive a JSON round-trip unchanged.
_JSON_NODE_TYPES = (str, int, float, bool)


class CheckpointError(ValueError):
    """A checkpoint cannot be produced or is malformed/unsupported."""


def load_checkpoint(text: str) -> Dict[str, Any]:
    """Parse checkpoint JSON text into a state dict, typed-error only.

    Truncated or otherwise invalid JSON (the torn-write shape a crash
    mid-``--checkpoint`` leaves behind), or JSON that is not a
    streaming-checkpoint object, raises :class:`CheckpointError` — never
    a raw ``json`` error. Pair with :func:`restore_detector`, which
    applies the same contract to the dict's *contents*.
    """
    try:
        state = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint is not valid JSON (truncated write?): {exc}"
        ) from exc
    if not isinstance(state, dict) or state.get("format") != FORMAT:
        raise CheckpointError(
            "not a streaming checkpoint (missing/wrong 'format' field)"
        )
    return state


def _encode_anchor(value: float) -> Optional[float]:
    return None if value == _NEG_INF else value


def _decode_anchor(value: Optional[float]) -> float:
    return _NEG_INF if value is None else value


def _check_node(node: Any) -> Any:
    if not isinstance(node, _JSON_NODE_TYPES):
        raise CheckpointError(
            f"node label {node!r} of type {type(node).__name__} does not "
            f"survive a JSON round-trip; checkpointing supports "
            f"str/int/float/bool node labels"
        )
    return node


def detector_state(detector) -> Dict[str, Any]:
    """Snapshot a :class:`StreamingDetector` as a JSON-safe dict."""
    motif = detector.motif
    series_rows: List[List[Any]] = []
    for series in detector._graph.all_series():
        series_rows.append(
            [
                _check_node(series.src),
                _check_node(series.dst),
                list(series.times),
                list(series.flows),
            ]
        )

    progress_rows: List[List[Any]] = []
    exported = detector._matcher.export_progress()
    for (vertex_map, pairs), (last_anchor, prev_lam) in exported.items():
        if last_anchor == _NEG_INF and prev_lam is None:
            continue  # untouched cursor; the restore default
        progress_rows.append(
            [
                list(vertex_map),
                [[src, dst] for src, dst in pairs],
                _encode_anchor(last_anchor),
                prev_lam,
            ]
        )

    out_rows: List[Dict[str, Any]] = []
    for instance in detector._out_buffer:
        out_rows.append(
            {
                "vertex_map": list(instance.vertex_map),
                "runs": [
                    [run.series.src, run.series.dst, run.lo, run.hi]
                    for run in instance.runs
                ],
            }
        )

    return {
        "format": FORMAT,
        "version": VERSION,
        "motif": {
            "path": list(motif.spanning_path),
            "delta": motif.delta,
            "phi": motif.phi,
            "name": motif.name,
        },
        "delta": detector.delta,
        "phi": detector.phi,
        "slack": detector.slack,
        "late": detector.late,
        "watermark": _encode_anchor(detector._watermark),
        "emitted": detector._emitted,
        "flushed": detector._flushed,
        "late_dropped": detector._late_dropped,
        "seq": detector._seq,
        "pending": [list(entry) for entry in detector._pending],
        "series": series_rows,
        "progress": progress_rows,
        "out_buffer": out_rows,
    }


def restore_detector(state: Dict[str, Any]):
    """Rebuild a :class:`StreamingDetector` from :func:`detector_state`.

    The restored detector continues the stream exactly where the snapshot
    left off: same watermark, same skip-rule cursors, same pending
    reorder buffer, same not-yet-returned emissions.
    """
    # Imported lazily: streaming imports this module for checkpoint().
    from repro.core.instance import MotifInstance, Run
    from repro.core.motif import Motif
    from repro.core.streaming import StreamingDetector
    from repro.graph.timeseries import EdgeSeries, GrowableTimeSeriesGraph

    if not isinstance(state, dict) or state.get("format") != FORMAT:
        raise CheckpointError(
            "not a streaming checkpoint (missing/wrong 'format' field)"
        )
    if state.get("version") != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(this build reads version {VERSION})"
        )
    try:
        motif_spec = state["motif"]
        motif = Motif(
            motif_spec["path"],
            motif_spec["delta"],
            motif_spec["phi"],
            name=motif_spec.get("name"),
        )
        detector = StreamingDetector(
            motif,
            delta=state["delta"],
            phi=state["phi"],
            slack=state["slack"],
            late=state["late"],
        )
        graph = GrowableTimeSeriesGraph(
            EdgeSeries(src, dst, times, flows)
            for src, dst, times, flows in state["series"]
        )
        detector._graph = graph
        detector._watermark = _decode_anchor(state["watermark"])
        detector._emitted = int(state["emitted"])
        detector._flushed = bool(state["flushed"])
        detector._late_dropped = int(state["late_dropped"])
        detector._seq = int(state["seq"])
        detector._pending = [tuple(entry) for entry in state["pending"]]
        # heapq invariant survives serialization: the list *is* the heap.

        progress_by_key: Dict[Tuple, Tuple[float, Optional[float]]] = {}
        for vertex_map, pairs, last_anchor, prev_lam in state["progress"]:
            key = (
                tuple(vertex_map),
                tuple((src, dst) for src, dst in pairs),
            )
            progress_by_key[key] = (_decode_anchor(last_anchor), prev_lam)

        # Re-derive the match set from the restored graph, then overlay
        # the saved cursors so the sweep resumes, not restarts.
        detector._matcher = type(detector._matcher)(
            graph, motif, detector.delta, detector.phi
        )
        detector._matcher.apply_progress(progress_by_key)

        out_buffer = []
        for record in state["out_buffer"]:
            runs = []
            for src, dst, lo, hi in record["runs"]:
                series = graph.series(src, dst)
                if series is None:
                    raise CheckpointError(
                        f"out-buffer run references unknown series "
                        f"{src!r}->{dst!r}"
                    )
                runs.append(Run(series, lo, hi))
            out_buffer.append(
                MotifInstance(motif, tuple(record["vertex_map"]), runs)
            )
        detector._out_buffer = out_buffer
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    return detector

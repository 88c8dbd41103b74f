"""Span-based tracing with explicit parent ids across process boundaries.

A *span* is a named, timed region with attributes; spans nest through a
per-thread stack, giving each span an explicit ``parent_id``. The
resulting flat span list — each span knows its parent — reassembles into
a tree with :func:`stitch_trace` regardless of which process produced
which span. That is the whole cross-process story:

1. the dispatcher opens ``query.*`` spans and captures its current
   :class:`TraceContext` (trace id + current span id);
2. the context rides in the :class:`~repro.parallel.worker.ShardTask`
   (next to the shard's store ref and bounds);
3. the worker enters a fresh observation whose tracer is parented at
   the shipped context, runs the task under ``p1.*``/``p2.*`` spans, and
   returns its serialized span list with the shard output;
4. the dispatcher stitches worker spans into its own list — span ids
   embed the producing pid, so ids never collide and the stitched tree
   provably crosses the worker boundary.

The module-level :func:`span` helper records into the tracer of the
observation active on this thread (:mod:`repro.obs.slot`). While there
is none it records nothing; it still returns a clock whose ``elapsed``
times the block, so timing code never needs a second timer. Open spans
are kept per thread in a dict keyed by thread ident, so the sampling
profiler can read the innermost open span of the thread it samples.

Span taxonomy (see README "Observability"): ``query.*`` engine entry
points, ``p1.*`` structural matching, ``p2.*`` instance search /
kernels, ``stream.*`` streaming layer, ``resilience.*`` fault handling.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .slot import current

__all__ = [
    "Span",
    "SpanNode",
    "TraceContext",
    "Tracer",
    "active",
    "set_span_hook",
    "span",
    "stitch_trace",
    "render_trace_tree",
    "span_totals",
]

_SEQ = itertools.count(1)

#: Optional callback invoked with every *finished* span dict — the
#: flight recorder's tap. None (the default) keeps span exit at its
#: usual cost.
_SPAN_HOOK = None


def set_span_hook(hook) -> None:
    """Install (or clear, with None) the finished-span callback."""
    global _SPAN_HOOK
    _SPAN_HOOK = hook


#: ``(trace_id, parent_span_id)`` — everything a worker needs to open
#: spans under the dispatcher's tree. Kept a plain tuple so it pickles
#: as a few bytes inside the shard task.
TraceContext = Tuple[str, Optional[str]]


def _new_id() -> str:
    """A process-unique span id: ``<pid hex>-<sequence hex>``.

    Embedding the pid makes ids from different worker processes disjoint
    by construction (and makes "which process produced this span"
    readable straight off a trace dump).
    """
    return f"{os.getpid():x}-{next(_SEQ):x}"


class Span:
    """One named, timed region of a trace."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "start", "end", "attrs"
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        trace_id: str,
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds between enter and exit."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-safe form (the worker return / JSONL sink format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span_obj = cls(
            data["name"],
            data["span_id"],
            data.get("parent_id"),
            data.get("trace_id", ""),
            data["start"],
            dict(data.get("attrs", {})),
        )
        span_obj.end = data["end"]
        return span_obj


class _Clock:
    """Times one ``with`` block: the handle every :func:`span` returns.

    ``elapsed`` reads live inside the block and is final after it, so a
    caller can time a phase (or the part of a query before its merge)
    from the span handle alone, with tracing on or off.
    """

    __slots__ = ("_start", "_end")

    def __init__(self) -> None:
        self._start = self._end = 0.0

    @property
    def elapsed(self) -> float:
        """Seconds since enter (until exit, once the block has closed)."""
        end = self._end if self._end else time.perf_counter()
        return end - self._start

    def set(self, **attrs: object) -> "_Clock":
        """Attach attributes to the live span (nothing to attach to here)."""
        return self

    def __enter__(self) -> "_Clock":
        self._end = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._end = time.perf_counter()


class _SpanHandle(_Clock):
    """A :class:`_Clock` that also records its block as a span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span) -> None:
        super().__init__()
        self._tracer = tracer
        self._span = span_obj

    def set(self, **attrs: object) -> "_SpanHandle":
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self._span)
        self._end = 0.0
        self._start = self._span.start = self._span.end = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._end = self._span.end = time.perf_counter()
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)


class Tracer:
    """Collects finished spans for one trace within one process.

    The open spans (the innermost one is what a new span without an
    explicit parent attaches to) are tracked per thread, keyed by thread
    ident; the finished-span list is shared under a lock, so worker
    threads and foreign (shipped-back) spans can land in the same tracer
    safely.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self.root_parent = parent_id
        self._finished: List[Span] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}

    # -- open-span stacks (per thread) ----------------------------------

    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def open_span_name(self, thread_ident: int) -> Optional[str]:
        """Innermost open span name on a thread (None when none is open).

        Safe to call from another thread: slicing the stack is atomic.
        """
        top = self._stacks.get(thread_ident, ())[-1:]
        return top[0].name if top else None

    def _push(self, span_obj: Span) -> None:
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        else:  # mis-nested exit; keep the trace usable
            try:
                stack.remove(span_obj)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span_obj)
        if _SPAN_HOOK is not None:
            try:
                _SPAN_HOOK(span_obj.to_dict())
            except Exception:  # a broken tap must never break tracing
                pass

    def current_span_id(self) -> Optional[str]:
        """Innermost open span id on this thread (falls back to the root
        parent the tracer was opened under)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self.root_parent

    def context(self) -> TraceContext:
        """The shippable ``(trace_id, parent span id)`` pair."""
        return (self.trace_id, self.current_span_id())

    # -- span creation ---------------------------------------------------

    def span(
        self,
        name: str,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> _SpanHandle:
        """A context manager opening one span under this tracer.

        ``parent_id`` overrides the innermost open span as the parent.
        """
        effective_parent = (
            parent_id if parent_id is not None else self.current_span_id()
        )
        span_obj = Span(
            name, _new_id(), effective_parent, self.trace_id, 0.0, dict(attrs)
        )
        return _SpanHandle(self, span_obj)

    # -- collection ------------------------------------------------------

    def add_spans(self, span_dicts: Sequence[dict]) -> None:
        """Adopt serialized spans produced elsewhere (worker results)."""
        foreign = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            self._finished.extend(foreign)

    def spans(self) -> List[dict]:
        """Serialized finished spans, ordered by start time."""
        with self._lock:
            finished = list(self._finished)
        finished.sort(key=lambda s: (s.start, s.span_id))
        return [s.to_dict() for s in finished]

def active() -> Optional[Tracer]:
    """This thread's tracer, or None when tracing is off."""
    observation = current()
    return observation.tracer if observation is not None else None


def span(name: str, **attrs: object) -> _Clock:
    """Open a span on the active tracer; a bare :class:`_Clock` when off.

    Either way the handle's ``elapsed`` times the block — the one clock
    behind every phase timing (``p1_seconds``, ``p2_seconds``, a query's
    ``wall_seconds``), so a traced run's span durations equal its
    reported timings exactly.
    """
    tracer = active()
    if tracer is None:
        return _Clock()
    return tracer.span(name, **attrs)


# ----------------------------------------------------------------------
# Stitching and rendering
# ----------------------------------------------------------------------


class SpanNode:
    """One node of a stitched trace tree."""

    __slots__ = ("span", "children")

    def __init__(self, span_obj: Span) -> None:
        self.span = span_obj
        self.children: List["SpanNode"] = []


def stitch_trace(span_dicts: Sequence[dict]) -> List[SpanNode]:
    """Assemble a flat span list into parent→child trees.

    Spans whose parent is absent from the list (or None) become roots —
    a fully stitched single-query trace has exactly one. Children sort
    by start time, so the tree reads chronologically.
    """
    spans = [
        d if isinstance(d, Span) else Span.from_dict(d) for d in span_dicts
    ]
    nodes = {s.span_id: SpanNode(s) for s in spans}
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = node.span.parent_id
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    order = lambda n: (n.span.start, n.span.span_id)  # noqa: E731
    for node in nodes.values():
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def render_trace_tree(roots: Sequence[SpanNode]) -> str:
    """Indented human rendering of stitched trace trees."""
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        s = node.span
        attrs = ""
        if s.attrs:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(s.attrs.items())
            )
            attrs = f"  [{rendered}]"
        pid = s.span_id.split("-", 1)[0]
        lines.append(
            f"{'  ' * depth}{s.name}  {s.duration * 1e3:.2f}ms"
            f"  (span={s.span_id} pid={pid}){attrs}"
        )
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def span_totals(span_dicts: Sequence[dict]) -> Dict[str, float]:
    """Total duration per span name — the Table 4-style phase breakdown."""
    totals: Dict[str, float] = {}
    for d in span_dicts:
        duration = d["end"] - d["start"]
        totals[d["name"]] = totals.get(d["name"], 0.0) + duration
    return totals

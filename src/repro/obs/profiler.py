"""Dependency-free sampling wall-clock profiler with span attribution.

A :class:`Profiler` runs a daemon thread that wakes ``hz`` times per
second, snapshots the interpreter's live frames via
:func:`sys._current_frames`, and folds each sampled stack into a
*collapsed-stack* table — ``frame;frame;frame -> count`` lines in the
format every flamegraph renderer understands. No signals, no C
extension, no per-line tracing overhead: the profiled code runs
completely unmodified and pays only for the GIL handoffs the sampler
thread forces (~1% at the default rate).

A profiler samples exactly one thread: the one that started it. Each
sample is attributed to that thread's **innermost open span**, read at
sample time from the tracer of the observation in the thread's slot
(:mod:`repro.obs.slot`) — so when the inline shard-task trampoline swaps
a per-task tracer in, samples follow it into the task's ``p1.*`` /
``p2.*`` spans. The span name becomes the root frame of every collapsed
line and feeds the ``by_span`` table, so a profile answers both "which
function burns the time" and "inside which phase (``p1.match`` /
``p2.enumerate`` / ...)" — and the by-span sample shares reconcile with
the tracer's own ``span_totals``.

Like metrics and tracing, profiling is **off by default**: an
:class:`~repro.obs.Observation` entered with ``profile=True`` starts
one. It crosses process boundaries through the shard task: the parallel
engine ships the profiler's rate inside each
:class:`~repro.parallel.worker.ShardTask`, a pool worker arms a per-task
:class:`Profiler` around the task, and the serialized
:class:`ProfileReport` rides home in the
:class:`~repro.parallel.worker.ShardReply`, where the dispatcher
:meth:`~Profiler.adopt`\\ s it.

>>> prof = Profiler(hz=50)
>>> _ = prof.start(); _ = sum(i * i for i in range(100000)); _ = prof.stop()
>>> prof.report.samples >= 0
True
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from .slot import _SLOTS

__all__ = [
    "DEFAULT_HZ",
    "ProfileReport",
    "Profiler",
]

#: Default sampling rate. Prime, so the sampler cannot phase-lock with
#: periodic work and systematically over/under-sample one code path.
DEFAULT_HZ = 97

#: Root frame used for samples taken while no span is open on the
#: sampled thread.
NO_SPAN = "(no span)"

#: Deepest stack recorded per sample; frames below the cut are dropped
#: from the *root* end so the hot leaf always survives.
MAX_STACK_DEPTH = 64


class ProfileReport:
    """Aggregated samples of one (or several merged) profiling runs.

    ``collapsed`` maps ``"span;module:func;module:func"`` lines to sample
    counts — the flamegraph wire format. ``by_span`` maps the innermost
    open span name at sample time to its sample count.
    """

    __slots__ = ("hz", "samples", "collapsed", "by_span")

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        self.hz = float(hz)
        self.samples = 0
        self.collapsed: Dict[str, int] = {}
        self.by_span: Dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def add_stack(self, span_name: Optional[str], frames: List[str]) -> None:
        """Fold one sampled stack (root-first frames) into the tables."""
        root = span_name if span_name else NO_SPAN
        line = ";".join([root] + frames)
        self.collapsed[line] = self.collapsed.get(line, 0) + 1
        self.by_span[root] = self.by_span.get(root, 0) + 1
        self.samples += 1

    def merge(self, other: "ProfileReport") -> "ProfileReport":
        """Fold another report in (associative; sample counts sum)."""
        self.samples += other.samples
        for line, count in other.collapsed.items():
            self.collapsed[line] = self.collapsed.get(line, 0) + count
        for span_name, count in other.by_span.items():
            self.by_span[span_name] = self.by_span.get(span_name, 0) + count
        return self

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (the worker return / JSONL sink format)."""
        return {
            "hz": self.hz,
            "samples": self.samples,
            "collapsed": dict(self.collapsed),
            "by_span": dict(self.by_span),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileReport":
        report = cls(hz=data.get("hz", DEFAULT_HZ))
        report.samples = int(data.get("samples", 0))
        report.collapsed = {
            str(k): int(v) for k, v in data.get("collapsed", {}).items()
        }
        report.by_span = {
            str(k): int(v) for k, v in data.get("by_span", {}).items()
        }
        return report

    # -- analysis --------------------------------------------------------

    def top_functions(
        self, n: int = 15, cumulative: bool = False
    ) -> List[Tuple[str, int]]:
        """The ``n`` hottest frames by self (leaf) or cumulative samples.

        Self samples count a frame only when it is the sampled leaf;
        cumulative samples count it whenever it appears anywhere on the
        stack (each frame at most once per sample, so recursion cannot
        inflate past ``samples``).
        """
        totals: Dict[str, int] = {}
        for line, count in self.collapsed.items():
            frames = line.split(";")[1:]  # drop the span root
            if not frames:
                continue
            if cumulative:
                for frame in set(frames):
                    totals[frame] = totals.get(frame, 0) + count
            else:
                leaf = frames[-1]
                totals[leaf] = totals.get(leaf, 0) + count
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def dominant_span(self, prefixes: Iterable[str] = ("p1.", "p2.")) -> Optional[str]:
        """The span name holding the most samples among ``prefixes``.

        The reconciliation hook: on a healthy profile the dominant phase
        by samples agrees with the dominant phase by tracer span totals.
        """
        eligible = {
            name: count
            for name, count in self.by_span.items()
            if any(name.startswith(p) for p in prefixes)
        }
        if not eligible:
            return None
        return max(eligible.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def render_text(self, n: int = 15) -> str:
        """Human summary: sample counts, span shares, top frames."""
        lines = [
            f"profile: {self.samples} samples @ {self.hz:g} Hz "
            f"(~{self.samples / self.hz:.2f}s sampled)"
        ]
        if self.by_span:
            lines.append("by span:")
            total = max(1, self.samples)
            for name, count in sorted(
                self.by_span.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(
                    f"  {name:<28} {count:>7}  {100.0 * count / total:5.1f}%"
                )
        for title, cumulative in (("self", False), ("cumulative", True)):
            ranked = self.top_functions(n, cumulative=cumulative)
            if ranked:
                lines.append(f"top {len(ranked)} frames ({title}):")
                for frame, count in ranked:
                    lines.append(f"  {frame:<52} {count:>7}")
        return "\n".join(lines)

    def write_collapsed(self, path: str) -> None:
        """Write ``stack count`` lines (flamegraph.pl / speedscope input)."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in sorted(self.collapsed):
                fh.write(f"{line} {self.collapsed[line]}\n")


def _format_frame(frame) -> str:
    """``module:function`` — compact, readable straight off a flamegraph."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


def _walk_stack(frame) -> List[str]:
    """Root-first frame names of one sampled thread, depth-capped."""
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        frames.append(_format_frame(frame))
        frame = frame.f_back
    frames.reverse()
    return frames


class Profiler:
    """Background sampling profiler of the thread that starts it.

    Nothing runs until :meth:`start`; the sampler thread then wakes
    ``hz`` times per second. Stopping and starting again accumulates
    into the same :attr:`report`.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self.report = ProfileReport(hz=self.hz)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Profiler":
        """Arm the sampler thread on the calling thread."""
        if self._thread is not None:
            return self
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> ProfileReport:
        """Stop sampling; safe to call twice. Returns the report."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=2.0)
        return self.report

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling --------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample_once()

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        observation = _SLOTS.get(self._target)
        tracer = observation.tracer if observation is not None else None
        span_name = (
            tracer.open_span_name(self._target) if tracer is not None else None
        )
        stack = _walk_stack(frame)
        del frame  # drop the frame reference promptly
        with self._lock:
            self.report.add_stack(span_name, stack)

    # -- cross-process folding ------------------------------------------

    def adopt(self, profile_dict: Optional[dict]) -> None:
        """Fold a worker's serialized :class:`ProfileReport` into ours."""
        if not profile_dict:
            return
        foreign = ProfileReport.from_dict(profile_dict)
        with self._lock:
            self.report.merge(foreign)

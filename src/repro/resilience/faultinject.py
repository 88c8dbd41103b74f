"""Deterministic fault injection for chaos testing the execution layer.

**One fault plan.** A :class:`FaultPlan` (a list of :class:`FaultSpec`)
is serialized into the ``REPRO_FAULT_PLAN`` environment variable by the
:func:`inject` context manager, or by a subprocess harness that puts
:meth:`FaultPlan.to_json` into :data:`ENV_VAR`. It fires at two kinds of
site, both through :meth:`FaultPlan.fire`:

* *Shard tasks.* The parallel engine reads the variable once per fan-out
  and copies the plan into every :class:`~repro.parallel.worker.ShardTask`,
  so workers of a pool started before the plan was armed still receive
  it. :func:`maybe_inject` — called by
  :func:`repro.parallel.worker.run_shard_task` exactly once per shard
  task (after the shard is resolved, before the kernel runs), in
  whatever process it runs — fires it for the task's shard index and
  ``kind``.
* *Crash points.* :func:`crash_point` sits at the seams of the segment
  store's seal and compaction protocols (:data:`SEAL_CRASH_POINTS`,
  :data:`COMPACT_CRASH_POINTS`) and fires the plan for shard ``None``
  and the point's name. A spec fires there only when its ``task_kinds``
  names that point.

Fault kinds:

``"kill"``   ``SIGKILL`` the current process (``os._exit`` with
             :data:`KILL_EXIT_CODE` as the fallback), so no flush, atexit
             or ``finally`` softens the death; downgraded to a raised
             :class:`InjectedFault` in the process that armed the plan, so
             serial fallbacks and in-process stores never kill the
             test/driver process itself.
``"raise"``  raise :class:`InjectedFault` from the site.
``"delay"``  sleep ``delay`` seconds before going on — the tool for
             exercising shard timeouts.

Each spec fires for the first ``times`` matching *attempts per shard*
(crash points count under shard ``None``), counted across processes via
atomic ``O_CREAT | O_EXCL`` marker files in the plan's state directory —
retry round ``times`` then succeeds, which is exactly the transient-fault
shape retries exist for. ``only_workers=True`` (default) restricts faults
to processes other than the one that armed the plan; set it ``False`` to
also fault inline execution and test error surfacing.

**Stream faults** perturb event streams for the streaming/checkpoint chaos
tests: :func:`drop_events`, :func:`duplicate_events`,
:func:`reorder_within_slack` (every event is displaced by at most
``slack`` time units — the exact disorder the detector's reorder buffer
must absorb), and :func:`corrupt_lines` for malformed-input handling. All
take an explicit ``random.Random`` so test failures replay exactly.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time as _time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, TypeVar

ENV_VAR = "REPRO_FAULT_PLAN"
#: Exit status of the "kill" fault where ``SIGKILL`` cannot land.
KILL_EXIT_CODE = 86

#: Every crash point the segment-store seal/compaction path registers, in
#: execution order — the chaos suite iterates this list so a new point
#: cannot be added without being crash-tested.
SEAL_CRASH_POINTS = (
    "segments.seal.before_write",
    "segments.seal.before_fsync",
    "segments.seal.after_fsync",
    "segments.seal.after_rename",
    "segments.manifest.before_fsync",
)
COMPACT_CRASH_POINTS = (
    "segments.compact.before_seal",
    "segments.compact.after_seal",
    "segments.compact.before_reap",
)

T = TypeVar("T")


class InjectedFault(RuntimeError):
    """Raised (or exited with) by an armed fault — never by real code."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: what to do, where, and how many times.

    Attributes
    ----------
    kind:
        ``"kill"``, ``"raise"`` or ``"delay"``.
    shards:
        Shard indices the rule applies to (``None`` = every shard). A
        crash point has no shard index, so a filter never matches one.
    task_kinds:
        Inner task kinds (``"search"``, ``"count"``, ``"top_k"``,
        ``"batch"``) or crash-point names the rule applies to (``None``
        = every shard task, and no crash point).
    times:
        Fire for the first this-many matching attempts per shard;
        afterwards the shard runs clean. ``times=10**9`` approximates a
        permanent fault.
    delay:
        Sleep duration for ``kind="delay"``.
    only_workers:
        Restrict the fault to processes other than the one that armed the
        plan (pool workers, subprocess writers). Keeps ``"kill"`` from
        terminating the dispatching process when the engine degrades to
        serial execution.
    """

    kind: str
    shards: Optional[Tuple[int, ...]] = None
    task_kinds: Optional[Tuple[str, ...]] = None
    times: int = 1
    delay: float = 0.0
    only_workers: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "raise", "delay"):
            raise ValueError(
                f"fault kind must be kill/raise/delay, got {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def matches(self, shard_index: Optional[int], task_kind: str) -> bool:
        """Whether the rule covers a site; ``shard_index=None`` is a
        crash point, which only a rule naming it covers."""
        if self.task_kinds is None:
            if shard_index is None:
                return False
        elif task_kind not in self.task_kinds:
            return False
        return self.shards is None or shard_index in self.shards


class FaultPlan:
    """A set of :class:`FaultSpec` plus the cross-process attempt state."""

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        state_dir: str,
        owner_pid: Optional[int] = None,
    ) -> None:
        self.specs = tuple(specs)
        self.state_dir = state_dir
        self.owner_pid = os.getpid() if owner_pid is None else owner_pid

    # -- env-var transport -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "owner_pid": self.owner_pid,
                "state_dir": self.state_dir,
                "specs": [asdict(spec) for spec in self.specs],
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        specs = []
        for raw in data["specs"]:
            raw = dict(raw)
            for key in ("shards", "task_kinds"):
                if raw.get(key) is not None:
                    raw[key] = tuple(raw[key])
            specs.append(FaultSpec(**raw))
        return cls(specs, data["state_dir"], owner_pid=data["owner_pid"])

    # -- firing ------------------------------------------------------------

    def _claim_attempt(
        self, spec_index: int, shard_index: Optional[int]
    ) -> int:
        """Atomically claim the next attempt number for (spec, shard).

        ``O_CREAT | O_EXCL`` marker files make the counter race-free
        across pool worker processes without locks or shared state.
        """
        n = 0
        while True:
            path = os.path.join(
                self.state_dir, f"spec{spec_index}-shard{shard_index}.{n}"
            )
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return n
            except FileExistsError:
                n += 1

    def fire(self, shard_index: Optional[int], task_kind: str) -> None:
        """Inject whatever the plan prescribes for this (shard, kind);
        a crash point fires as shard ``None``."""
        in_owner = os.getpid() == self.owner_pid
        for spec_index, spec in enumerate(self.specs):
            if not spec.matches(shard_index, task_kind):
                continue
            if spec.only_workers and in_owner:
                continue
            attempt = self._claim_attempt(spec_index, shard_index)
            if attempt >= spec.times:
                continue
            if spec.kind == "delay":
                _time.sleep(spec.delay)
                continue
            if spec.kind == "kill" and not in_owner:
                _kill_self()
            raise InjectedFault(
                f"injected {spec.kind} fault on shard {shard_index} "
                f"({task_kind}, attempt {attempt})"
            )


def _kill_self() -> None:
    """Die the hardest way available: ``SIGKILL`` to this process."""
    try:
        os.kill(os.getpid(), signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - non-POSIX
        pass
    os._exit(KILL_EXIT_CODE)  # pragma: no cover - SIGKILL normally lands


def crash_point(name: str) -> None:
    """Durable-path chaos hook: fire the armed plan at crash point ``name``.

    Placed at the seams of the segment seal and compaction protocols
    (before fsync, between fsync and rename, mid-compaction). Costs one
    environment lookup when no plan is armed — safe on the production
    path.
    """
    payload = os.environ.get(ENV_VAR)
    if payload:
        FaultPlan.from_json(payload).fire(None, name)


def maybe_inject(
    shard_index: int, task_kind: str, payload: Optional[str]
) -> None:
    """Worker-side hook: fire the plan a shard task carries, if any.

    ``payload`` is the plan's JSON (:meth:`FaultPlan.to_json`), as read
    from :data:`ENV_VAR` by the dispatcher; ``None`` costs one test —
    safe to leave in the production task path.
    """
    if payload:
        FaultPlan.from_json(payload).fire(shard_index, task_kind)


@contextmanager
def inject(
    *specs: FaultSpec, state_dir: Optional[str] = None
) -> Iterator[FaultPlan]:
    """Arm a fault plan for the duration of a ``with`` block.

    The plan lives in the environment of this process; the parallel
    engine reads it at each fan-out and ships it inside the shard tasks,
    so it reaches pool workers started before this context was entered,
    and :func:`crash_point` reads it at every call.
    A temporary state directory is created (and removed) when none is
    given.
    """
    owned_tmp = None
    if state_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-faults-")
        state_dir = owned_tmp.name
    plan = FaultPlan(specs, state_dir)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        if owned_tmp is not None:
            owned_tmp.cleanup()


# ----------------------------------------------------------------------
# Stream perturbations
# ----------------------------------------------------------------------


def drop_events(events: Sequence[T], rate: float, rng) -> List[T]:
    """Drop each event independently with probability ``rate``."""
    return [event for event in events if rng.random() >= rate]


def duplicate_events(events: Sequence[T], rate: float, rng) -> List[T]:
    """Duplicate each event (immediately after itself) with probability
    ``rate`` — same timestamp, so time order is preserved."""
    out: List[T] = []
    for event in events:
        out.append(event)
        if rng.random() < rate:
            out.append(event)
    return out


def reorder_within_slack(
    events: Sequence[T], slack: float, rng, time_of=None
) -> List[T]:
    """Shuffle a time-ordered stream so no event is late by more than
    ``slack``.

    Each event is re-sorted by ``t + U(0, slack)``: an event at time ``t``
    can land after neighbours up to ``t + slack``, so the watermark when it
    arrives is at most ``t + slack`` — lateness ≤ ``slack``, the exact
    contract of the detector's reorder buffer. ``time_of`` extracts the
    timestamp (default: index 2 of a ``(src, dst, time, flow)`` tuple).
    """
    if time_of is None:
        time_of = lambda event: event[2]  # noqa: E731 - tiny accessor
    keyed = [
        (time_of(event) + rng.uniform(0.0, slack), index, event)
        for index, event in enumerate(events)
    ]
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [event for _, _, event in keyed]


_CORRUPTIONS = ("truncate", "garbage-field", "missing-field", "binary-noise")


def corrupt_lines(lines: Sequence[str], rate: float, rng) -> Tuple[List[str], int]:
    """Corrupt each CSV line with probability ``rate``.

    Returns ``(lines, corrupted_count)``; corruption modes cover the
    malformed shapes the CLI quarantine must absorb: truncated lines,
    non-numeric fields, missing fields, and binary noise.
    """
    out: List[str] = []
    corrupted = 0
    for line in lines:
        if rng.random() >= rate:
            out.append(line)
            continue
        corrupted += 1
        mode = _CORRUPTIONS[rng.randrange(len(_CORRUPTIONS))]
        if mode == "truncate":
            out.append(line[: max(1, len(line) // 2)])
        elif mode == "garbage-field":
            fields = line.split(",")
            fields[-1] = "not-a-number"
            out.append(",".join(fields))
        elif mode == "missing-field":
            out.append(",".join(line.split(",")[:-1]))
        else:
            out.append("\x00\xff garbage \x00")
    return out, corrupted

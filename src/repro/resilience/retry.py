"""Retry policies, error classification, and dispatch fault reporting.

One :class:`RetryPolicy` describes everything the parallel engine's
fault-tolerant dispatcher may do about a failing shard: how many times to
re-run it on the same backend, how long to wait between rounds
(capped exponential backoff — two runs with the same policy sleep the
same schedule, so chaos tests and replayed incidents are reproducible),
how long a dispatch round may take before outstanding shards are declared
timed out, and whether the engine may walk the ``process → serial``
degradation chain when the process pool keeps failing.

Failures are *classified*, never swallowed: every observed error becomes a
:class:`FaultEvent` (category + shard + attempt + backend) collected into
the dispatch's :class:`DispatchReport` and logged through the
``repro.resilience`` logger. When retries and degradation are exhausted —
or degradation is disabled — the dispatcher raises
:class:`ShardExecutionError` carrying the original cause.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs import flight as _flight
from repro.obs import metrics as _metrics

LOG = logging.getLogger("repro.resilience")

#: Failure categories, roughly ordered from "environment" to "your code".
CATEGORIES = (
    "timeout",
    "worker-crash",
    "serialization",
    "shared-memory",
    "task-error",
)


class ShardTimeoutError(TimeoutError):
    """A shard task did not finish within the dispatch round's budget."""


class ShardExecutionError(RuntimeError):
    """A shard kept failing after every retry and degradation step.

    ``faults`` holds the classified :class:`FaultEvent` history of the
    dispatch, so the error message alone tells the whole story: which
    shards failed, on which backends, and why.
    """

    def __init__(self, message: str, faults: Optional[List["FaultEvent"]] = None):
        super().__init__(message)
        self.faults = list(faults or [])


def classify_error(exc: BaseException) -> str:
    """Map an exception from a shard task to one of :data:`CATEGORIES`."""
    if isinstance(exc, (FuturesTimeoutError, ShardTimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        # BrokenProcessPool: a worker died under us.
        return "worker-crash"
    if isinstance(exc, (pickle.PicklingError, pickle.UnpicklingError)):
        return "serialization"
    if isinstance(exc, FileNotFoundError) or (
        isinstance(exc, (OSError, ValueError))
        and "shared memory" in str(exc).lower()
    ):
        return "shared-memory"
    return "task-error"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule with capped exponential backoff for shard tasks.

    Parameters
    ----------
    max_retries:
        Re-runs allowed per backend after the first attempt (so a backend
        gets ``max_retries + 1`` rounds before the engine degrades).
    base_delay, backoff_factor, max_delay:
        Round ``k`` sleeps ``min(max_delay, base_delay * backoff_factor**k)``
        seconds before retrying.
    timeout:
        Per-dispatch-round budget in seconds: shards still unfinished when
        the round's deadline passes are classified ``"timeout"`` and
        retried. ``None`` disables the deadline.
    degrade:
        Allow the engine to degrade ``process → serial`` when the process
        pool exhausts its retries. With ``False`` the engine raises
        :class:`ShardExecutionError` instead.

    There is no jitter: it spreads out the retries of many independent
    clients, but here one dispatcher retries its own shards.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    timeout: Optional[float] = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")

    def delay_for(self, attempt: int) -> float:
        """Seconds to sleep before retry round ``attempt`` (0-based)."""
        return min(
            self.max_delay, self.base_delay * self.backoff_factor ** attempt
        )


@dataclass
class FaultEvent:
    """One classified shard failure observed during a dispatch."""

    shard_index: int
    backend: str
    attempt: int
    category: str
    message: str

    def __str__(self) -> str:  # compact, log-friendly
        return (
            f"shard {self.shard_index} [{self.backend} attempt "
            f"{self.attempt}] {self.category}: {self.message}"
        )


@dataclass
class DispatchReport:
    """What happened during one fault-tolerant dispatch.

    Exposed as ``ParallelFlowMotifEngine.last_dispatch`` so callers (and
    the chaos tests) can assert on retry/degradation behaviour without
    parsing logs.
    """

    backend: str = ""
    #: Backend that produced the final, merged results.
    final_backend: str = ""
    #: Retry rounds executed beyond the first attempt, across backends.
    retry_rounds: int = 0
    #: Degradation steps taken, e.g. ``["serial"]``.
    degradations: List[str] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)

    @property
    def fault_categories(self) -> Tuple[str, ...]:
        return tuple(event.category for event in self.faults)

    def record(
        self,
        shard_index: int,
        backend: str,
        attempt: int,
        exc: BaseException,
    ) -> FaultEvent:
        """Classify, log, and retain one shard failure."""
        event = FaultEvent(
            shard_index=shard_index,
            backend=backend,
            attempt=attempt,
            category=classify_error(exc),
            message=f"{type(exc).__name__}: {exc}",
        )
        self.faults.append(event)
        LOG.warning("shard failure: %s", event)
        reg = _metrics.active()
        if reg is not None:
            reg.counter(
                "resilience.faults", category=event.category, backend=backend
            ).inc()
        recorder = _flight.installed()
        if recorder is not None:
            recorder.note_fault(
                category=event.category,
                message=event.message,
                shard_index=shard_index,
                backend=backend,
                attempt=attempt,
            )
            if event.category == "timeout":
                # Timeouts are the faults whose cause lives in the
                # moments *before* them — ship the ring immediately.
                recorder.dump("shard-timeout")
        return event

    def record_retry_round(self, backend: str) -> None:
        """Count one retry round (beyond the first attempt)."""
        self.retry_rounds += 1
        reg = _metrics.active()
        if reg is not None:
            reg.counter("resilience.retries", backend=backend).inc()
        recorder = _flight.installed()
        if recorder is not None:
            recorder.note("retry-round", backend=backend, round=self.retry_rounds)
            recorder.dump("shard-retry")

    def record_degradation(self, backend: str) -> None:
        """Count one degradation step onto ``backend``."""
        self.degradations.append(backend)
        reg = _metrics.active()
        if reg is not None:
            reg.counter("resilience.degradations", to=backend).inc()
        recorder = _flight.installed()
        if recorder is not None:
            recorder.note("degradation", to=backend)
            recorder.dump("degradation")

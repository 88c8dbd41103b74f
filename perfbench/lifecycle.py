"""Process and shared-memory lifecycle of one benchmark run.

The parallel engine shuts each process pool down with ``wait=False``, so
pool workers can outlive the call that started them, and the standard
library starts a resource-tracker process on the first shared-memory
export. A run therefore reaps its own children after every sharded phase,
stops the tracker before it exits, and on SIGTERM, SIGINT or its own
deadline (SIGALRM) terminates whatever it started, unlinks its
shared-memory exports and exits without printing a result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time

#: Seconds a child gets to exit on its own before it is terminated.
JOIN_TIMEOUT = 10.0

_OWNER_PID = os.getpid()


def reap_children(timeout: float = JOIN_TIMEOUT) -> int:
    """Wait for every live ``multiprocessing`` child to exit; terminate
    the ones still running after ``timeout`` seconds.

    Polls instead of joining: a pool's own management thread may be
    joining the same workers, and whichever thread loses that race would
    see the child as still running. Returns how many children had to be
    terminated (0 when every pool worker exited by itself).
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)
    stragglers = multiprocessing.active_children()
    _stop_children(stragglers)
    return len(stragglers)


def _stop_children(children) -> None:
    for child in children:
        child.terminate()
    for child in children:
        child.join(JOIN_TIMEOUT)
        if child.is_alive():
            child.kill()
            child.join()


def release_batch_runner(runner) -> None:
    """Unlink the shared-memory export a :class:`BatchRunner` created.

    ``BatchRunner`` has no ``close()``; its composed parallel engine owns
    the export, and closing that engine releases it.
    """
    runner._engine.close()


def stop_resource_tracker() -> None:
    """Stop the stdlib resource tracker if this run started one, and wait
    for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    try:
        tracker._stop()
    except Exception:
        # _stop refuses a reentrant call, which a signal arriving while
        # the main thread is inside the tracker would make.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _own_children() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _kill_own_children() -> None:
    children = _own_children()
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _abort(signum, frame) -> None:
    if os.getpid() != _OWNER_PID:
        # A forked pool worker inherits this handler: die as the signal
        # would have made it die, and leave cleanup to the owner.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    signal.alarm(0)
    _stop_children(multiprocessing.active_children())
    try:
        from repro.resilience import shm_registry

        shm_registry.cleanup_segments()
    except ImportError:
        pass
    # A pool worker forked a moment before the signal is not yet among
    # active_children() and holds the resource tracker's pipe open, so
    # the tracker would never see it close: kill every child still left,
    # the tracker included, and reap them.
    _kill_own_children()
    print(
        f"perfbench: stopped by signal {signum}; no result",
        file=sys.stderr,
        flush=True,
    )
    os._exit(128 + signum)


def install(deadline_s: int) -> None:
    """Route SIGTERM, SIGINT and a ``deadline_s`` alarm to the abort path."""
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _abort)
    signal.alarm(deadline_s)


def finish() -> int:
    """Normal shutdown: reap children, stop the tracker, cancel the alarm.

    Returns how many children had to be terminated.
    """
    terminated = reap_children()
    stop_resource_tracker()
    signal.alarm(0)
    return terminated

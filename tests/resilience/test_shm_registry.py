"""Crash-safe shared-memory lifecycle tests.

The interesting cases need real process death, so several tests run a
small exporter script in a subprocess and assert on what the segment
looks like from the outside afterwards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.graph.columnar import ColumnStore
from repro.graph.interaction import InteractionGraph
from repro.resilience import (
    active_segments,
    cleanup_segments,
    reap_orphans,
    scan_orphans,
)
from repro.resilience.shm_registry import pid_alive

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Exporter harness: exports a tiny ColumnStore into shm, prints the
#: segment name, then dies the way the parametrizing test asks.
EXPORTER = textwrap.dedent(
    """
    import os, sys, time
    from repro.graph.columnar import ColumnStore
    from repro.graph.interaction import InteractionGraph

    g = InteractionGraph()
    g.add_interaction("a", "b", 1.0, 2.0)
    g.add_interaction("b", "c", 2.0, 3.0)
    store = ColumnStore.from_graph(g).to_shared()
    print(store.shm_name, flush=True)
    mode = sys.argv[1]
    if "untrack" in sys.argv[2:]:
        # Simulate the stdlib resource tracker dying with the process
        # (OOM kill / SIGKILL of the whole group): without this, the
        # surviving tracker would unlink the "leaked" segment itself and
        # race the orphan scanner under test.
        from multiprocessing import resource_tracker
        resource_tracker.unregister("/" + store.shm_name, "shared_memory")
    if mode == "exit":
        sys.exit(0)             # atexit hooks run
    elif mode == "hard-exit":
        os._exit(0)             # nothing runs: simulates SIGKILL
    elif mode == "wait":
        time.sleep(30)          # parent will signal us
    """
)


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


def _spawn_exporter(mode: str, *flags: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", EXPORTER, mode, *flags],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


@pytest.fixture
def tiny_store():
    graph = InteractionGraph()
    graph.add_interaction("a", "b", 1.0, 2.0)
    return ColumnStore.from_graph(graph)


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX /dev/shm"
)
class TestCrashCleanup:
    def test_normal_exit_unlinks_via_atexit(self):
        with _spawn_exporter("exit") as proc:
            name = proc.stdout.readline().strip()
            proc.wait(timeout=30)
        assert proc.returncode == 0
        assert name
        assert not _segment_exists(name)

    def test_sigterm_unlinks_via_signal_handler(self):
        with _spawn_exporter("wait") as proc:
            name = proc.stdout.readline().strip()
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        assert name
        assert not _segment_exists(name)

    def test_hard_kill_leaks_then_reap_orphans_recovers(self):
        with _spawn_exporter("hard-exit", "untrack") as proc:
            name = proc.stdout.readline().strip()
            proc.wait(timeout=30)
        assert name
        # os._exit skipped every hook: the segment leaked...
        assert _segment_exists(name)
        bare = name.lstrip("/")
        # ...the scanner sees it (creator pid recorded and dead)...
        assert bare in scan_orphans()
        # ...and the reaper removes exactly it.
        assert bare in reap_orphans([bare])
        assert not _segment_exists(name)

    def test_attach_warns_on_orphaned_segment(self, tiny_store, caplog):
        try:
            with _spawn_exporter("wait", "untrack") as proc:
                name = proc.stdout.readline().strip()
                proc.send_signal(signal.SIGSTOP)  # keep it mapped but idle
                proc.kill()  # SIGKILL: no cleanup runs
                proc.wait(timeout=30)
            assert _segment_exists(name)
            with caplog.at_level("WARNING", logger="repro.graph.columnar"):
                attached = ColumnStore.attach(name)
            assert attached.creator_pid == proc.pid
            assert not pid_alive(proc.pid)
            assert any("orphan" in r.message for r in caplog.records)
            attached.close()
        finally:
            reap_orphans([name.lstrip("/")])


class TestRegistry:
    def test_register_unregister_cycle(self, tiny_store):
        shared = tiny_store.to_shared()
        name = shared.shm_name
        assert name in active_segments()
        shared.close(unlink=True)  # close() unregisters before unlinking
        assert name not in active_segments()
        assert not _segment_exists(name)

    def test_cleanup_segments_unlinks_registered(self, tiny_store):
        shared = tiny_store.to_shared()
        name = shared.shm_name
        assert cleanup_segments() >= 1
        assert name not in active_segments()
        assert not _segment_exists(name)

    def test_cleanup_is_idempotent(self, tiny_store):
        shared = tiny_store.to_shared()
        shared.close(unlink=True)
        assert cleanup_segments() == 0

    def test_creator_pid_travels_with_the_segment(self, tiny_store):
        shared = tiny_store.to_shared()
        try:
            attached = ColumnStore.attach(shared.shm_name)
            assert attached.creator_pid == os.getpid()
            attached.close()
        finally:
            shared.close(unlink=True)


#: Fork harness: arms the chaining SIGTERM handler, then reports the
#: SIGTERM handler a forked child sees, with the registry's handler on
#: top ("disposition") or a later one ("later"), or how a pool worker
#: forked while another thread held the registry lock dies of SIGTERM
#: ("pool").
FORKER = textwrap.dedent(
    """
    import multiprocessing, os, signal, sys, threading, time
    from concurrent.futures import ProcessPoolExecutor
    from repro.resilience import shm_registry

    shm_registry.register_sigterm_hook(lambda: None)
    assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
    fork = multiprocessing.get_context("fork")
    if sys.argv[1] in ("disposition", "later"):
        parent, child = fork.Pipe()

        def later(signum, frame):
            pass

        def report(conn):
            handler = signal.getsignal(signal.SIGTERM)
            # Handlers.SIG_DFL has a .name, a function a __name__.
            conn.send(getattr(handler, "name", None) or handler.__name__)

        if sys.argv[1] == "later":
            signal.signal(signal.SIGTERM, later)

        proc = fork.Process(target=report, args=(child,))
        proc.start()
        print(parent.recv(), flush=True)
        proc.join()
    else:
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with shm_registry._LOCK:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold_lock)
        holder.start()
        held.wait()
        pool = ProcessPoolExecutor(max_workers=1, mp_context=fork)
        pid = pool.submit(os.getpid).result()
        release.set()
        holder.join()
        worker = pool._processes[pid]
        os.kill(pid, signal.SIGTERM)
        # The pool's manager thread may reap the worker first; it then
        # sets the exit code on this same Process object.
        deadline = time.monotonic() + 5
        while worker.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.05)
        print(worker.exitcode, flush=True)
        if worker.exitcode is None:
            worker.kill()
        pool.shutdown(wait=True)
    """
)


def _run_forker(mode: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", FORKER, mode],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestForkedChildren:
    """Forked children (pool workers) do not keep the parent's SIGTERM
    chain or its registry lock."""

    def test_forked_child_has_the_default_sigterm_disposition(self):
        assert _run_forker("disposition") == "SIG_DFL"

    def test_forked_child_keeps_a_handler_installed_later(self):
        assert _run_forker("later") == "later"

    def test_sigterm_ends_a_pool_worker_forked_under_the_lock(self):
        assert _run_forker("pool") == str(-signal.SIGTERM)


class TestPidAlive:
    def test_own_pid(self):
        assert pid_alive(os.getpid())

    def test_dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=30)
        assert not pid_alive(proc.pid)

    def test_garbage_pids(self):
        assert not pid_alive(None)
        assert not pid_alive(0)
        assert not pid_alive(-5)

"""Tests of the end-to-end benchmark itself (smoke-sized datasets).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="descendant checks read /proc"
)


def _descendants(pid: int) -> set:
    """Every live process below ``pid`` in the process tree."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, stack = set(), [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _segments_of(pid: int) -> list:
    """Shared-memory ColumnStore segments stamped with creator ``pid``."""
    from repro.resilience.shm_registry import SEGMENT_HEADER, SEGMENT_MAGIC

    found = []
    if not os.path.isdir("/dev/shm"):
        return found
    for name in os.listdir("/dev/shm"):
        try:
            with open(os.path.join("/dev/shm", name), "rb") as fh:
                header = fh.read(SEGMENT_HEADER.size)
                if len(header) < SEGMENT_HEADER.size:
                    continue
                magic, _, meta_len = SEGMENT_HEADER.unpack(header)
                if magic != SEGMENT_MAGIC:
                    continue
                meta = json.loads(fh.read(meta_len))
        except (OSError, ValueError):
            continue
        if meta.get("pid") == pid:
            found.append(name)
    return found


class _Watch:
    """Records every descendant of a running process, polling /proc."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.seen: set = set()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while self.proc.poll() is None:
            self.seen |= _descendants(self.proc.pid)
            time.sleep(0.005)

    def join(self) -> None:
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


def _assert_nothing_left(proc: subprocess.Popen, watch: _Watch) -> None:
    assert watch.seen, "the run started no process at all"
    survivors = {pid for pid in watch.seen if os.path.exists(f"/proc/{pid}")}
    assert not survivors, f"descendants outlived the run: {survivors}"
    assert not _segments_of(proc.pid)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_pass_prints_every_metric_and_leaves_nothing(workload, trace, tmp_path):
    proc = subprocess.Popen(
        RUN + ["--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watch = _Watch(proc)
    stdout, stderr = proc.communicate(timeout=120)
    watch.join()
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: (entry["unit"], type(entry["value"]))
        for name, entry in result["metrics"].items()
    } == {m["name"]: (m["unit"], float) for m in declared}
    env = json.loads(stdout.strip().splitlines()[-2])["env"]
    assert env["seed"] == 0 and env["held_out_seed"] != 0
    assert env["nproc"] >= 1 and env["events"] > 0 and env["series"] > 0
    _assert_nothing_left(proc, watch)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGALRM])
def test_signal_mid_run_stops_every_descendant(signum, tmp_path):
    """SIGALRM is the run's own deadline; both take the abort path."""
    # Files, not pipes: a leaked child holding a pipe open would block
    # the wait instead of failing the test.
    log, out = tmp_path / "stderr.txt", tmp_path / "stdout.txt"
    with log.open("w") as err, out.open("w") as stdout:
        proc = subprocess.Popen(
            RUN + ["--workload", "query-sparse", "--seed", "0",
                   "--seconds", "60", "--smoke"],
            cwd=tmp_path,
            stdout=stdout,
            stderr=err,
        )
    watch = _Watch(proc)
    try:
        own = _cmdline(proc.pid)
        deadline = time.monotonic() + 60
        # Signal while a timed pass has pool workers running.
        while time.monotonic() < deadline:
            if "perfbench: pass 2" in log.read_text() and any(
                _cmdline(pid) == own for pid in _descendants(proc.pid)
            ):
                break
            time.sleep(0.005)
        else:
            pytest.fail("no pool worker was seen during a timed pass")
        proc.send_signal(signum)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    watch.join()
    assert proc.returncode == 128 + signum, log.read_text()
    assert '"correct"' not in out.read_text()
    _assert_nothing_left(proc, watch)


@pytest.fixture(scope="module")
def bench_modules():
    import lifecycle
    import workloads

    yield workloads
    lifecycle.reap_children()


def _smoke_pass(workloads, name):
    ctx, _ = workloads.setup(workloads.WORKLOADS[name], 0, True, 1)
    checks = workloads.Checks()
    workloads.run_pass(ctx, checks)
    return checks


def test_dropped_parallel_instance_fails_the_check(bench_modules, monkeypatch):
    from repro import ParallelFlowMotifEngine

    original = ParallelFlowMotifEngine.find_instances

    def drop_one(self, motif, *args, **kwargs):
        result = original(self, motif, *args, **kwargs)
        if result.instances:
            result.instances.pop()
        return result

    monkeypatch.setattr(ParallelFlowMotifEngine, "find_instances", drop_one)
    checks = _smoke_pass(bench_modules, "query-sparse")
    assert checks.failed >= 1
    assert any(p.startswith("parallel find") for p in checks.problems)


def test_dropped_stream_emission_fails_the_check(bench_modules, monkeypatch):
    from repro import StreamingDetector

    original = StreamingDetector.flush

    def drop_one(self):
        emitted = original(self)
        return emitted[1:]

    monkeypatch.setattr(StreamingDetector, "flush", drop_one)
    checks = _smoke_pass(bench_modules, "query-sparse")
    assert checks.problems == ["stream emissions vs offline find_instances"]

"""Durable-store chaos: SIGKILL at every protocol seam, then recover.

The acceptance property: a hard kill at **any** registered crash point
leaves a store that (after :func:`repro.graph.segments.fsck`) reopens
cleanly, has every manifested segment intact, and searches — serial and
parallel — multiset-identically to the oracle over the events that were
durably sealed. The only permitted loss is the unsealed memtable tail.

Each scenario runs a writer in a real subprocess with a fault plan naming
one crash point armed through ``REPRO_FAULT_PLAN`` (the arming process is
immune), so the death is a genuine ``SIGKILL`` mid-syscall-sequence, not
an exception.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.segments import SegmentStore, fsck, verify_segment
from repro.resilience.faultinject import (
    COMPACT_CRASH_POINTS,
    ENV_VAR,
    KILL_EXIT_CODE,
    SEAL_CRASH_POINTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    inject,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

BATCHES = 4
BATCH_EVENTS = 25


def _batches(seed: int = 99):
    """Deterministic event batches — identical in parent and writer."""
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(BATCHES):
        batch = []
        for _ in range(BATCH_EVENTS):
            u, v = rng.sample(range(5), 2)
            t += rng.random()
            batch.append((u, v, t, float(rng.randint(1, 9))))
        out.append(batch)
    return out


#: Writer harness: seals one segment per batch (printing a line as each
#: seal *returns*, i.e. is durable), then compacts. A crash plan armed by
#: the parent kills it somewhere in the middle of all that.
WRITER = textwrap.dedent(
    """
    import random, sys
    from repro.graph.segments import SegmentStore

    BATCHES, BATCH_EVENTS = %d, %d
    rng = random.Random(99)
    t = 0.0
    store = SegmentStore(sys.argv[1])
    for index in range(BATCHES):
        for _ in range(BATCH_EVENTS):
            u, v = rng.sample(range(5), 2)
            t += rng.random()
            store.append(u, v, t, float(rng.randint(1, 9)))
        store.seal()
        print("sealed %%d" %% index, flush=True)
    store.compact()
    print("compacted", flush=True)
    """
    % (BATCHES, BATCH_EVENTS)
)


def _run_writer(root: str, plan: FaultPlan) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env[ENV_VAR] = plan.to_json()
    return subprocess.run(
        [sys.executable, "-c", WRITER, root],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _plan(point: str, state_dir: str) -> FaultPlan:
    # Owned by this process, never the child's: in the writer it fires.
    return FaultPlan([FaultSpec("kill", task_kinds=(point,))], state_dir)


def _digest(graph):
    return sorted(
        (s.src, s.dst, list(s.times), list(s.flows))
        for s in graph.all_series()
    )


def _oracle_graph(num_batches: int):
    events = [e for batch in _batches()[:num_batches] for e in batch]
    return InteractionGraph.from_tuples(events).to_time_series()


def _search_keys(graph, parallel: bool):
    motif = Motif.chain(3, delta=4, phi=2)
    if parallel:
        from repro.parallel import ParallelFlowMotifEngine

        engine = ParallelFlowMotifEngine(graph, jobs=2, backend="process")
    else:
        engine = FlowMotifEngine(graph)
    try:
        result = engine.find_instances(motif)
        return sorted(i.canonical_key() for i in result.instances)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def _recover_and_check(root: str, sealed_reported: int) -> None:
    """The whole recovery contract, asserted after any crash."""
    # 1. fsck repairs the leftovers and ends with a healthy report
    report = fsck(root)
    assert report.ok, report.summary()
    assert fsck(root, repair=False).ok  # and it converged in one pass

    # 2. every surviving live segment's checksums verify
    store = SegmentStore(root, create=False)
    durable = 0
    for name in store.live_segments():
        verify_segment(store.segment_path(name))
        durable += 1

    # 3. durable data = a batch-prefix at least as long as what the
    #    writer saw committed (a seal can be durable without the writer
    #    having lived to report it, never the reverse)
    recovered = _digest(store.search_graph())
    candidates = {
        j: _digest(_oracle_graph(j))
        for j in range(sealed_reported, BATCHES + 1)
    }
    matching = [j for j, digest in candidates.items() if digest == recovered]
    assert matching, (
        f"recovered store matches no sealed-batch prefix >= "
        f"{sealed_reported}"
    )

    # 4. parallel search over the reopened store == serial oracle
    graph = store.search_graph()
    assert _search_keys(graph, parallel=True) == _search_keys(
        _oracle_graph(matching[0]), parallel=False
    )


class TestKillAtEverySeam:
    @pytest.mark.parametrize("point", SEAL_CRASH_POINTS)
    def test_sigkill_during_seal(self, tmp_path, point):
        root = str(tmp_path / "store")
        state = str(tmp_path / "state")
        os.makedirs(state)
        proc = _run_writer(root, _plan(point, state))
        assert proc.returncode in (-9, KILL_EXIT_CODE), proc.stderr
        sealed_reported = proc.stdout.count("sealed")
        assert sealed_reported < BATCHES  # it really died mid-run
        _recover_and_check(root, sealed_reported)

    @pytest.mark.parametrize("point", COMPACT_CRASH_POINTS)
    def test_sigkill_during_compaction(self, tmp_path, point):
        """Compaction crashes lose nothing: every batch was sealed."""
        root = str(tmp_path / "store")
        state = str(tmp_path / "state")
        os.makedirs(state)
        proc = _run_writer(root, _plan(point, state))
        assert proc.returncode in (-9, KILL_EXIT_CODE), proc.stderr
        assert proc.stdout.count("sealed") == BATCHES
        assert "compacted" not in proc.stdout
        _recover_and_check(root, BATCHES)

    def test_unharmed_writer_completes(self, tmp_path):
        """Control run: no plan, the writer seals, compacts and exits 0."""
        root = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop(ENV_VAR, None)
        proc = subprocess.run(
            [sys.executable, "-c", WRITER, root],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        store = SegmentStore(root, create=False)
        assert len(store.live_segments()) == 1  # compacted steady state
        assert _digest(store.search_graph()) == _digest(
            _oracle_graph(BATCHES)
        )


class TestRaiseKind:
    """A "raise" crash point fires in-process — the retry-after-fault
    story."""

    def test_seal_raises_then_retry_succeeds(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        for event in _batches()[0]:
            store.append(*event)
        with inject(
            FaultSpec(
                "raise",
                task_kinds=("segments.seal.before_fsync",),
                only_workers=False,
            )
        ):
            with pytest.raises(InjectedFault):
                store.seal()
            # the marker budget (times=1) is spent: the retry goes through
            assert store.seal() is not None
        report = fsck(store.root)
        assert report.ok
        assert _digest(store.search_graph()) == _digest(_oracle_graph(1))

    def test_compact_raises_then_retry_succeeds(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        for batch in _batches()[:2]:
            for event in batch:
                store.append(*event)
            store.seal()
        with inject(
            FaultSpec(
                "raise",
                task_kinds=("segments.compact.after_seal",),
                only_workers=False,
            )
        ):
            with pytest.raises(InjectedFault):
                store.compact()
            fsck(store.root)  # quarantine the unmanifested merge output
            assert store.compact() is not None
        assert len(store.live_segments()) == 1
        assert _digest(store.search_graph()) == _digest(_oracle_graph(2))

    def test_owner_process_immune_by_default(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        for event in _batches()[0]:
            store.append(*event)
        with inject(
            FaultSpec("raise", task_kinds=("segments.seal.before_fsync",))
        ):
            assert store.seal() is not None  # only_workers=True: no fire

"""Every execution path returns serial ``find_instances``'s answer.

One differential test per path and motif shape (chain M(3,2), cycle
M(3,3)), all on the same seeded graphs. The reference is the serial
:class:`~repro.core.engine.FlowMotifEngine` ``find_instances`` at the
case's φ, compared as a multiset of ``canonical_key()``; counts compare
with its size, ranking paths compare flows at φ=0. Two paths compare
lists, order included: a one-shard parallel find against serial's list,
and the same three shards run inline (``jobs=1``) against the process
pool (``jobs=2``).

The graphs are built to hit rounding and boundary cases:

* flows drawn from {0.1, 0.2, 0.3, 0.7, 1e-8, 1e4}, so prefix-sum
  differences round, and tiny flows vanish next to large ones;
* integer timestamps on a short horizon, so ties are common;
* events planted exactly at anchor + δ, closing a chain and a cycle;
* φ equal to a value the graph attains (a series total or one event's
  flow), so an aggregate lands exactly on φ.

Every path must round the way serial does; this test does not decide
whether serial agrees with exact arithmetic.

Each path answers both motifs with one engine per graph (a module-level
memo), so the process paths start one pool per graph, not two.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List

import pytest
from shm_faults import fail_shm_export

from repro.core.engine import FlowMotifEngine
from repro.core.motif import Motif
from repro.core.streaming import StreamingDetector
from repro.graph.interaction import InteractionGraph
from repro.graph.segments import SegmentStore
from repro.parallel import BatchRunner, MotifConfig, ParallelFlowMotifEngine

FLOWS = (0.1, 0.2, 0.3, 0.7, 1e-8, 1e4)
NUM_GRAPHS = 60
TOP_K = 4
MOTIFS = {
    "chain": Motif.chain(3, delta=6.0),
    "cycle": Motif.cycle(3, delta=8.0),
}


def _stream(rng: random.Random) -> List[tuple]:
    """Time-ordered events; equal timestamps keep their drawn order."""
    nodes = rng.randint(3, 5)
    events = []
    for _ in range(rng.randint(12, 36)):
        u, v = rng.sample(range(nodes), 2)
        events.append((u, v, float(rng.randint(0, 24)), rng.choice(FLOWS)))
    for _ in range(rng.randint(1, 4)):
        # A path u→v→w→u whose later edges sit exactly at t + δ.
        u, v, t, _flow = rng.choice(events)
        w = rng.choice([n for n in range(nodes) if n not in (u, v)])
        for motif in MOTIFS.values():
            end = t + motif.delta
            events.append((v, w, end, rng.choice(FLOWS)))
            events.append((w, u, end, rng.choice(FLOWS)))
    events.sort(key=lambda e: e[2])
    return events


class Case:
    """One graph, its per-motif φ, and the serial reference answers."""

    def __init__(self, rng: random.Random) -> None:
        self.events = _stream(rng)
        self.graph = InteractionGraph.from_tuples(self.events)
        serial = FlowMotifEngine(self.graph)
        attained = sorted(
            {e[3] for e in self.events}
            | {s.total_flow for s in serial.time_series_graph.all_series()}
        )
        self.phi = {name: rng.choice(attained) for name in MOTIFS}
        self.keys = {}
        self.order = {}
        self.flows_at_zero = {}
        for name, motif in MOTIFS.items():
            found = serial.find_instances(motif, phi=self.phi[name])
            self.keys[name] = _keys(found.instances)
            self.order[name] = _ordered(found.instances)
            at_zero = serial.find_instances(motif, phi=0.0)
            self.flows_at_zero[name] = sorted(
                (i.flow for i in at_zero.instances), reverse=True
            )


def _keys(instances) -> Counter:
    return Counter(i.canonical_key() for i in instances)


def _ordered(instances) -> list:
    return [i.canonical_key() for i in instances]


@pytest.fixture(scope="module")
def cases(module_seeded_rng) -> List[Case]:
    return [Case(module_seeded_rng) for _ in range(NUM_GRAPHS)]


# ----------------------------------------------------------------------
# Paths. A check answers one motif on one case as a (got, want) pair;
# checks of a path with an engine factory also take that engine.
# ----------------------------------------------------------------------


def _find_on(engine, case: Case, name: str):
    """Find and count: a shard that emits an instance it does not own
    shows in both."""
    motif, phi = MOTIFS[name], case.phi[name]
    found = _keys(engine.find_instances(motif, phi=phi).instances)
    counted = engine.count_instances(motif, phi=phi).count
    want = case.keys[name]
    return (found, counted), (want, sum(want.values()))


def _find_in_order(engine, case: Case, name: str):
    """A one-shard find is serial find's list, in serial's order."""
    found = engine.find_instances(MOTIFS[name], phi=case.phi[name])
    return _ordered(found.instances), case.order[name]


def _jobs_agree(engines, case: Case, name: str):
    """The same shards inline and on the pool merge to the same list."""
    motif, phi = MOTIFS[name], case.phi[name]
    inline, pooled = (
        _ordered(engine.find_instances(motif, phi=phi).instances)
        for engine in engines
    )
    return pooled, inline


def _serial_count(case, name):
    engine = FlowMotifEngine(case.graph)
    got = engine.count_instances(MOTIFS[name], phi=case.phi[name]).count
    return got, sum(case.keys[name].values())


def _serial_top_k(case, name):
    top = FlowMotifEngine(case.graph).top_k(MOTIFS[name], TOP_K)
    return [i.flow for i in top], case.flows_at_zero[name][:TOP_K]


def _serial_top_one_dp(case, name):
    best = FlowMotifEngine(case.graph).top_one_dp(MOTIFS[name])
    return best.flow, max(case.flows_at_zero[name], default=0.0)


def _batch(runner: BatchRunner, case, name):
    """A two-cell grid sharing P1 (the case's φ and 0), so each shard
    prunes P1 at the grid's smallest φ rather than the cell's."""
    motif, phi = MOTIFS[name], case.phi[name]
    results = runner.run([MotifConfig(motif, phi=phi), MotifConfig(motif)])
    return _keys(results[0].instances), case.keys[name]


def _stream_live(case, name, restore_at=None):
    motif, phi = MOTIFS[name], case.phi[name]
    rng = random.Random(len(case.events))  # where the polls fall
    detector = StreamingDetector(motif, phi=phi)
    emitted: Counter = Counter()
    for index, (src, dst, t, flow) in enumerate(case.events):
        if index == restore_at:
            state = json.loads(json.dumps(detector.checkpoint()))
            detector = StreamingDetector.restore(state)
        detector.add(src, dst, t, flow)
        if rng.random() < 0.3:
            emitted.update(_keys(detector.poll()))
    emitted.update(_keys(detector.flush()))
    return emitted, case.keys[name]


def _stream_restored(case, name):
    return _stream_live(case, name, restore_at=len(case.events) // 2)


def _parallel(**kwargs) -> Callable:
    def make(case, _tmp_path_factory):
        return ParallelFlowMotifEngine(case.graph, **kwargs)

    return make


@contextmanager
def _pickled_engine(case, _tmp_path_factory):
    """A process engine whose shared-memory export fails as on a full
    /dev/shm, so every fan-out ships pickled slices."""
    with fail_shm_export():
        with ParallelFlowMotifEngine(
            case.graph, jobs=2, shards=3, backend="process"
        ) as engine:
            yield engine
        assert not engine._zero_copy


@contextmanager
def _inline_and_pooled(case, _tmp_path_factory):
    with ParallelFlowMotifEngine(
        case.graph, jobs=1, shards=3
    ) as inline, ParallelFlowMotifEngine(
        case.graph, jobs=2, shards=3
    ) as pooled:
        yield inline, pooled


def _segment_engine(case, tmp_path_factory):
    store = SegmentStore(str(tmp_path_factory.mktemp("segment")))
    store.extend(case.events)
    store.seal()
    graph = store.search_graph()
    assert graph._column_store.path  # one sealed segment: zero-copy
    return ParallelFlowMotifEngine(graph, jobs=2, shards=3, backend="process")


def _batch_runner(case, _tmp_path_factory):
    return BatchRunner(case.graph, jobs=1, shards=3)


#: path id → (engine factory or None, per-motif check).
PATHS: Dict[str, tuple] = {
    "count": (None, _serial_count),
    "top_k": (None, _serial_top_k),
    "top_one_dp": (None, _serial_top_one_dp),
    "parallel-serial": (_parallel(jobs=1, shards=3), _find_on),
    "parallel-one-shard-order": (_parallel(jobs=1, shards=1), _find_in_order),
    "jobs-1-vs-2-order": (_inline_and_pooled, _jobs_agree),
    "process-shm": (
        _parallel(jobs=2, shards=3, backend="process"), _find_on,
    ),
    "process-pickled": (_pickled_engine, _find_on),
    "process-segment": (_segment_engine, _find_on),
    "batch": (_batch_runner, _batch),
    "stream-live": (None, _stream_live),
    "stream-restored": (None, _stream_restored),
}


@pytest.fixture(scope="module")
def answers(cases, tmp_path_factory):
    """``answers(path)`` → {motif: [(case index, got, want)]}, computed
    once per path for both motifs, with one engine per graph."""
    memo: Dict[str, Dict[str, list]] = {}

    def compute(path: str) -> Dict[str, list]:
        if path not in memo:
            factory, check = PATHS[path]
            out: Dict[str, list] = {name: [] for name in MOTIFS}
            for index, case in enumerate(cases):
                if factory is None:
                    for name in MOTIFS:
                        out[name].append((index, *check(case, name)))
                    continue
                with factory(case, tmp_path_factory) as engine:
                    for name in MOTIFS:
                        out[name].append((index, *check(engine, case, name)))
            memo[path] = out
        return memo[path]

    return compute


@pytest.mark.parametrize("motif", sorted(MOTIFS))
@pytest.mark.parametrize("path", list(PATHS))
def test_path_agrees_with_serial_find(path, motif, answers, cases):
    wrong = [
        (index, cases[index].phi[motif])
        for index, got, want in answers(path)[motif]
        if got != want
    ]
    assert not wrong, f"{path} differs from serial find on (case, φ): {wrong}"

"""Differential oracle: streaming emissions ≡ offline search, as multisets.

The tentpole contract of the incremental streaming matcher: for random
graphs and *random interleavings* of ``add``/``poll``/``flush``, the union
of everything the detector ever emits equals — as a multiset of canonical
instances — the offline :func:`find_instances` on the full stream, for
every tested motif topology.

Seeds come from the shared ``base_seed`` fixture (tests/conftest.py), so
a failure report prints the exact seed to reproduce.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.enumeration import find_instances
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.streaming import StreamingDetector
from repro.graph.interaction import InteractionGraph

#: The tested motif topologies of the ISSUE: chain-2, chain-3, triangle.
TOPOLOGIES = {
    "chain-2": lambda: Motif.chain(2, delta=6.0, phi=2.0),
    "chain-3": lambda: Motif.chain(3, delta=9.0, phi=1.0),
    "triangle": lambda: Motif.cycle(3, delta=12.0, phi=0.0),
}


def _random_stream(rng, nodes=6, events=70, horizon=40):
    """Time-ordered stream on an integer grid (ties are the point)."""
    stream = []
    for _ in range(events):
        src, dst = rng.sample(range(nodes), 2)
        stream.append(
            (src, dst, float(rng.randrange(0, horizon)), float(rng.randint(1, 8)))
        )
    stream.sort(key=lambda e: e[2])
    return stream


def _offline_multiset(stream, motif):
    graph = InteractionGraph.from_tuples(stream).to_time_series()
    matches = find_structural_matches(graph, motif)
    return Counter(i.canonical_key() for i in find_instances(matches))


def _streamed_multiset(stream, motif, rng):
    """Replay with a random interleaving of polls; flush ends the run.

    Each emission batch is checked for internal duplicates too, so a
    multiset match here really means "each instance exactly once".
    """
    detector = StreamingDetector(motif)
    emitted = Counter()
    for src, dst, t, f in stream:
        detector.add(src, dst, t, f)
        # 0, 1 or several polls between adds, chosen at random.
        while rng.random() < 0.35:
            emitted.update(i.canonical_key() for i in detector.poll())
    if rng.random() < 0.5:
        emitted.update(i.canonical_key() for i in detector.poll())
    emitted.update(i.canonical_key() for i in detector.flush())
    return emitted


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_streaming_equals_offline_multiset(topology, case, base_seed):
    rng = random.Random(base_seed + case)
    stream = _random_stream(rng)
    motif = TOPOLOGIES[topology]()
    offline = _offline_multiset(stream, motif)
    streamed = _streamed_multiset(stream, motif, rng)
    assert streamed == offline
    assert max(streamed.values(), default=1) == 1  # exactly once


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_interleavings_agree(topology, base_seed):
    """Emissions must coincide under *different* random interleavings of
    polls over the same stream."""
    rng = random.Random(base_seed)
    stream = _random_stream(rng, nodes=5, events=60)
    motif = TOPOLOGIES[topology]()
    first = _streamed_multiset(stream, motif, random.Random(base_seed + 1))
    second = _streamed_multiset(stream, motif, random.Random(base_seed + 2))
    assert first == second == _offline_multiset(stream, motif)


@pytest.mark.parametrize("case", range(3))
def test_dense_pair_streams(case, base_seed):
    """Few nodes → long per-pair series → multi-element edge-sets, tied
    anchors and heavy skip-rule traffic."""
    rng = random.Random(base_seed ^ case)
    stream = _random_stream(rng, nodes=3, events=50, horizon=20)
    for topology in sorted(TOPOLOGIES):
        motif = TOPOLOGIES[topology]()
        assert _streamed_multiset(
            stream, motif, rng
        ) == _offline_multiset(stream, motif), topology


def test_poll_heavy_and_poll_free_extremes(base_seed):
    """poll after every add, and a single flush with no polls at all."""
    rng = random.Random(base_seed)
    stream = _random_stream(rng, nodes=5, events=55)
    motif = TOPOLOGIES["chain-3"]()
    offline = _offline_multiset(stream, motif)

    chatty = StreamingDetector(motif)
    emitted = Counter()
    for src, dst, t, f in stream:
        chatty.add(src, dst, t, f)
        emitted.update(i.canonical_key() for i in chatty.poll())
    emitted.update(i.canonical_key() for i in chatty.flush())
    assert emitted == offline

    silent = StreamingDetector(motif)
    for src, dst, t, f in stream:
        silent.add(src, dst, t, f)
    assert Counter(
        i.canonical_key() for i in silent.flush()
    ) == offline

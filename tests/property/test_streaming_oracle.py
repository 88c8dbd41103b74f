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


#: Promptness topologies: non-integer δ, so window ends are float sums.
PROMPT_TOPOLOGIES = {
    "chain-3": lambda: Motif.chain(3, delta=2.3, phi=1.5),
    "cycle-3": lambda: Motif.cycle(3, delta=3.7, phi=0.5),
}


def _decimal_stream(rng, delta, nodes=5, events=60):
    """Times on a 0.1 grid (inexact in binary), plus events placed
    exactly at ``t + δ`` of an earlier event: the window-end boundary."""
    stream = []
    for _ in range(events):
        src, dst = rng.sample(range(nodes), 2)
        t = rng.randrange(0, 200) / 10
        if stream and rng.random() < 0.3:
            t = rng.choice(stream)[2] + delta
        stream.append((src, dst, t, rng.randrange(5, 60) / 10))
    stream.sort(key=lambda e: e[2])
    return stream


@pytest.mark.parametrize("slack", [0.0, 1.3])
@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("topology", sorted(PROMPT_TOPOLOGIES))
def test_every_poll_emits_exactly_the_closed_windows(
    topology, case, slack, base_seed
):
    """After every poll, the cumulative emissions are exactly the offline
    instances whose window end ``start + δ`` lies below the horizon.

    The end-of-stream multiset tests above cannot see *when* an instance
    comes out; a deadline scheduled one anchor late passes them but
    fails here. With a slack, events arrive out of order within it.
    """
    rng = random.Random(base_seed + case)
    motif = PROMPT_TOPOLOGIES[topology]()
    delta = motif.delta
    stream = _decimal_stream(rng, delta)
    graph = InteractionGraph.from_tuples(stream).to_time_series()
    offline = find_instances(find_structural_matches(graph, motif))
    # Arrival order: each event delayed by at most the slack.
    arrivals = sorted(stream, key=lambda e: e[2] + rng.random() * slack)
    detector = StreamingDetector(motif, slack=slack)
    emitted = Counter()
    for src, dst, t, f in arrivals:
        detector.add(src, dst, t, f)
        if rng.random() < 0.5:
            continue
        emitted.update(i.canonical_key() for i in detector.poll())
        horizon = detector.watermark - slack
        expected = Counter(
            i.canonical_key() for i in offline if i.start_time + delta < horizon
        )
        assert emitted == expected, horizon
    emitted.update(i.canonical_key() for i in detector.flush())
    assert emitted == Counter(i.canonical_key() for i in offline)

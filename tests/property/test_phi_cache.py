"""The φ-aware P1 cache never changes an answer.

A :class:`~repro.core.matching.MatchCache` list pruned at φ′ serves every
query at φ ≥ φ′ and is rebuilt for a lower φ. Every answer the engine
gives after a history that reads, rebuilds and re-reads that list must
equal P2 run over the pure, unpruned P1 set. Flows are decimal and φ is
a value the graph attains (a series total or a single event's flow), so
an aggregate lands exactly on φ: the prune's ``total_flow < φ`` and P2's
prefix-difference test must round the same way.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.counting import count_instances
from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.topk import top_k_instances
from repro.graph.interaction import InteractionGraph
from repro.parallel import ParallelFlowMotifEngine

MOTIFS = [
    Motif((0, 1, 2), delta=8.0),
    Motif((0, 1, 2, 0), delta=12.0),
    Motif((0, 1, 2, 3), delta=15.0),
]


@st.composite
def cases(draw):
    num_nodes = draw(st.integers(3, 6))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.integers(0, 40).map(float),
                st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
            ).filter(lambda e: e[0] != e[1]),
            min_size=5,
            max_size=40,
        )
    )
    graph = InteractionGraph.from_tuples(events)
    attained = {e[3] for e in events} | {
        s.total_flow for s in graph.to_time_series().all_series()
    }
    phi = draw(st.sampled_from(sorted(attained)))
    return graph, phi


def _keys(instances):
    return sorted(i.canonical_key() for i in instances)


def _check_history(engine, pure, motif, phi):
    """find φ → count φ/2 → top_k → find φ, each against P2 over ``pure``."""
    found = engine.find_instances(motif, phi=phi)
    assert _keys(found.instances) == _keys(find_instances(pure, phi=phi))
    counted = engine.count_instances(motif, phi=phi / 2)
    assert counted.count == count_instances(pure, phi=phi / 2)
    top = engine.top_k(motif, 3)
    assert [i.flow for i in top] == [
        i.flow for i in top_k_instances(pure, 3)
    ]
    again = engine.find_instances(motif, phi=phi)
    assert _keys(again.instances) == _keys(found.instances)


@settings(max_examples=60, deadline=None)
@given(case=cases(), motif=st.sampled_from(MOTIFS))
def test_serial_cache_history_matches_pure_p1(case, motif):
    graph, phi = case
    engine = FlowMotifEngine(graph)
    pure = find_structural_matches(engine.time_series_graph, motif)
    _check_history(engine, pure, motif, phi)


@settings(max_examples=25, deadline=None)
@given(case=cases(), motif=st.sampled_from(MOTIFS))
def test_serial_sharded_history_matches_pure_p1(case, motif):
    graph, phi = case
    pure = find_structural_matches(graph.to_time_series(), motif)
    with ParallelFlowMotifEngine(graph, jobs=1, shards=3) as engine:
        _check_history(engine, pure, motif, phi)

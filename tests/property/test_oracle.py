"""Property-based equivalence with the brute-force oracle.

On random tiny graphs, the two-phase algorithm's output must equal the set
of maximal instances computed directly from Definitions 3.2/3.3 by the
exponential oracle of :mod:`repro.baselines.bruteforce` — for chains,
cycles, fork/join motifs, varying δ/φ, and tied timestamps.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import (
    _structural_matches_brute,
    brute_force_instances,
)
from repro.core.dag import GeneralMotif
from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.parallel import ParallelFlowMotifEngine

# Timestamps on a coarse grid so tied timestamps actually occur.
times = st.integers(min_value=0, max_value=24).map(lambda v: v / 2.0)
flows = st.sampled_from([0.5, 1.0, 2.0, 5.0])


@st.composite
def tiny_graphs(draw, max_events=11, num_nodes=4, self_loops=False):
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                times,
                flows,
            ).filter(lambda e: self_loops or e[0] != e[1]),
            min_size=2,
            max_size=max_events,
        )
    )
    return InteractionGraph.from_tuples(events)


MOTIF_SHAPES = [
    (0, 1),           # single edge
    (0, 1, 2),        # chain of 3
    (0, 1, 0),        # 2-cycle
    (0, 1, 2, 0),     # triangle
    (0, 1, 2, 3),     # chain of 4
]

motif_strategy = st.builds(
    Motif,
    st.sampled_from(MOTIF_SHAPES),
    delta=st.sampled_from([2.0, 5.0, 10.0]),
    phi=st.sampled_from([0.0, 1.0, 3.0]),
)


def fast_keys(graph, motif):
    ts = graph.to_time_series()
    matches = find_structural_matches(ts, motif)
    instances = find_instances(matches)
    return {
        (i.vertex_map, tuple(tuple(sorted(r.items())) for r in i.runs))
        for i in instances
    }


@settings(max_examples=120, deadline=None)
@given(graph=tiny_graphs(), motif=motif_strategy)
def test_two_phase_equals_brute_force(graph, motif):
    expected = brute_force_instances(graph.to_time_series(), motif)
    actual = fast_keys(graph, motif)
    assert actual == expected


@settings(max_examples=60, deadline=None)
@given(graph=tiny_graphs(max_events=9, num_nodes=3), motif=motif_strategy)
def test_two_phase_equals_brute_force_dense_pairs(graph, motif):
    """Fewer nodes → longer per-pair series → multi-element edge-sets."""
    expected = brute_force_instances(graph.to_time_series(), motif)
    actual = fast_keys(graph, motif)
    assert actual == expected


#: Fork/join shapes as label-ordered edge lists: fork, join, fork-join,
#: triangle with chord, disconnected in label order (P1 reaches edge 2
#: with neither endpoint bound), a self-loop reached that way, and a
#: leading self-loop.
DAG_SHAPES = [
    [(0, 1), (0, 2)],
    [(0, 2), (1, 2)],
    [(0, 1), (0, 2), (1, 3), (2, 3)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (2, 3), (1, 2)],
    [(0, 1), (2, 2), (1, 2)],
    [(0, 0), (0, 1)],
]

dag_motif_strategy = st.builds(
    GeneralMotif,
    st.sampled_from(DAG_SHAPES),
    delta=st.sampled_from([2.0, 5.0, 10.0]),
    phi=st.sampled_from([0.0, 1.0, 3.0]),
)


def instance_keys(instances):
    return {
        (i.vertex_map, tuple(tuple(sorted(r.items())) for r in i.runs))
        for i in instances
    }


@settings(max_examples=120, deadline=None)
@given(
    graph=tiny_graphs(max_events=10, self_loops=True), motif=dag_motif_strategy
)
def test_dag_motifs_equal_brute_force_on_every_engine(graph, motif):
    """Fork/join motifs run the serial and the sharded engines unchanged."""
    ts = graph.to_time_series()
    assert {m.vertex_map for m in find_structural_matches(ts, motif)} == {
        vertex_map for vertex_map, _ in _structural_matches_brute(ts, motif)
    }
    expected = brute_force_instances(ts, motif)
    engine = FlowMotifEngine(ts)
    assert instance_keys(engine.find_instances(motif).instances) == expected
    assert engine.count_instances(motif).count == len(expected)
    # Top-k ranks by flow alone (no φ), so its oracle runs at φ=0.
    flows = sorted(
        (
            min(sum(f for _, f in run) for run in runs)
            for _, runs in brute_force_instances(ts, motif, phi=0.0)
        ),
        reverse=True,
    )
    assert [i.flow for i in engine.top_k(motif, 3)] == flows[:3]
    sharded = ParallelFlowMotifEngine(ts, jobs=1, shards=3)
    assert instance_keys(sharded.find_instances(motif).instances) == expected

"""Cross-implementation properties on larger random graphs.

No oracle here — instead the independent implementations must agree with
each other, and structural invariants must hold on every output:

* join baseline ≡ two-phase enumeration;
* memoized counting ≡ ``len`` of enumeration;
* DP top-1 flow ≡ max flow over enumeration;
* top-k flows ≡ sorted prefix of enumeration flows;
* every emitted instance is valid (Def. 3.2) and maximal (Def. 3.3).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines.join import join_find_instances
from repro.core.counting import count_instances
from repro.core.dp import top_one_instance
from repro.core.enumeration import find_instances
from repro.core.instance import is_maximal, is_valid_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.topk import top_k_instances
from repro.graph.interaction import InteractionGraph

# Besides small integers, draw times exactly on the motifs' δ boundaries
# (anchor + δ for δ ∈ {8, 12, 15, 20}) and flows that are decimal or far
# from 1, so window ends and prefix sums are exercised off the easy cases.
times = st.one_of(
    st.integers(min_value=0, max_value=60).map(float),
    st.sampled_from([0.0, 8.0, 12.0, 15.0, 20.0]),
)
flows = st.one_of(
    st.integers(min_value=1, max_value=8).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e-8, 1e4]),
)


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(4, 7))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                times,
                flows,
            ).filter(lambda e: e[0] != e[1]),
            min_size=5,
            max_size=40,
        )
    )
    return InteractionGraph.from_tuples(events)


MOTIFS = [
    Motif((0, 1, 2), delta=8.0, phi=0.0),
    Motif((0, 1, 2), delta=15.0, phi=3.0),
    Motif((0, 1, 2, 0), delta=12.0, phi=0.0),
    Motif((0, 1, 2, 3), delta=20.0, phi=2.0),
    Motif((0, 1, 2, 0, 3), delta=25.0, phi=0.0),
]


def instance_keys(instances):
    return {
        (i.vertex_map, tuple(tuple(sorted(r.items())) for r in i.runs))
        for i in instances
    }


@settings(max_examples=50, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_all_outputs_valid_and_maximal(graph, motif):
    ts = graph.to_time_series()
    matches = find_structural_matches(ts, motif)
    for instance in find_instances(matches):
        ok, reason = is_valid_instance(instance, ts)
        assert ok, reason
        assert is_maximal(instance)


@settings(max_examples=50, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_no_duplicate_instances(graph, motif):
    matches = find_structural_matches(graph.to_time_series(), motif)
    instances = find_instances(matches)
    assert len(instances) == len(instance_keys(instances))


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_join_equals_two_phase(graph, motif):
    ts = graph.to_time_series()
    matches = find_structural_matches(ts, motif)
    assert instance_keys(join_find_instances(ts, motif)) == instance_keys(
        find_instances(matches)
    )


@settings(max_examples=50, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_count_equals_enumeration_length(graph, motif):
    matches = find_structural_matches(graph.to_time_series(), motif)
    assert count_instances(matches) == len(find_instances(matches))


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_dp_equals_enumeration_max(graph, motif):
    matches = find_structural_matches(graph.to_time_series(), motif)
    best_enum = max(
        (i.flow for i in find_instances(matches, phi=0.0)), default=0.0
    )
    assert top_one_instance(matches, reconstruct=False).flow == best_enum


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), motif=st.sampled_from(MOTIFS))
def test_fused_pipeline_equals_two_phase(graph, motif):
    from repro.core.engine import FlowMotifEngine

    engine = FlowMotifEngine(graph)
    found = engine.find_instances(motif)
    pure = find_structural_matches(engine.time_series_graph, motif)
    assert instance_keys(found.instances) == instance_keys(find_instances(pure))


@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(),
    motif=st.sampled_from(MOTIFS),
    k=st.sampled_from([1, 2, 5]),
)
def test_topk_equals_sorted_enumeration(graph, motif, k):
    matches = find_structural_matches(graph.to_time_series(), motif)
    all_flows = sorted(
        (i.flow for i in find_instances(matches, phi=0.0)), reverse=True
    )
    top_flows = [i.flow for i in top_k_instances(matches, k)]
    assert top_flows == all_flows[:k]

"""Exact reproduction of every worked example in the paper (Sections 1–5).

These tests pin the implementation to the paper's own ground truth:
Figure 1 (intro instances), Figures 2/4/5/6 (running example), Figure 7
(window positions and instance walkthrough) and the Section 5.1 top-1
result that Table 2 computes.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.instance import is_maximal, is_valid_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.windows import iter_maximal_windows


def _edge_events(instance):
    """Per motif edge: (src, dst, ((t, f), ...)) — hashable for comparison."""
    return tuple(
        (run.series.src, run.series.dst, tuple(run.items()))
        for run in instance.runs
    )


class TestFigure6StructuralMatches:
    """Phase P1 on the running example finds the six matches of Figure 6."""

    def test_six_matches(self, fig2_engine, triangle):
        matches = find_structural_matches(
            fig2_engine.time_series_graph, triangle
        )
        assert len(matches) == 6

    def test_match_walks(self, fig2_engine, triangle):
        ts = fig2_engine.time_series_graph
        walks = {m.walk for m in find_structural_matches(ts, triangle)}
        assert walks == {
            ("u1", "u2", "u3", "u1"),
            ("u2", "u3", "u1", "u2"),
            ("u3", "u1", "u2", "u3"),
            ("u2", "u3", "u4", "u2"),
            ("u3", "u4", "u2", "u3"),
            ("u4", "u2", "u3", "u4"),
        }

    def test_matches_carry_series(self, fig2_engine, triangle):
        ts = fig2_engine.time_series_graph
        for match in find_structural_matches(ts, triangle):
            assert len(match.series) == 3
            for i, series in enumerate(match.series):
                m_src, m_dst = triangle.edge(i)
                assert series.src == match.vertex_map[m_src]
                assert series.dst == match.vertex_map[m_dst]


class TestFigure4Instance:
    """The maximal instance of M(3,3) with δ=10, φ=7 (Figure 4a)."""

    def test_exactly_one_instance(self, fig2_engine, triangle):
        result = fig2_engine.find_instances(triangle)
        assert result.count == 1

    def test_instance_content(self, fig2_engine, triangle):
        [instance] = fig2_engine.find_instances(triangle).instances
        assert _edge_events(instance) == (
            ("u3", "u1", ((10, 10),)),
            ("u1", "u2", ((13, 5), (15, 7))),
            ("u2", "u3", ((18, 20),)),
        )

    def test_instance_flow_is_min_aggregate(self, fig2_engine, triangle):
        [instance] = fig2_engine.find_instances(triangle).instances
        # Aggregates are 10, 12, 20; Equation 1 takes the minimum.
        assert instance.flow == 10
        assert instance.span == 8

    def test_instance_is_valid_and_maximal(self, fig2_engine, triangle):
        [instance] = fig2_engine.find_instances(triangle).instances
        ok, reason = is_valid_instance(
            instance, fig2_engine.time_series_graph
        )
        assert ok, reason
        assert is_maximal(instance)

    def test_figure4b_subset_is_not_emitted(self, fig2_engine, triangle):
        """The non-maximal variant (without (13,5)) must not appear."""
        instances = fig2_engine.find_instances(triangle).instances
        for instance in instances:
            events = dict(
                ((r.series.src, r.series.dst), tuple(r.items()))
                for r in instance.runs
            )
            assert events.get(("u1", "u2")) != ((15, 7),)


class TestFigure7Windows:
    """Window positions of the Figure 7 walkthrough (δ=10)."""

    @pytest.fixture
    def u3_match(self, fig7_engine, triangle_phi0):
        matches = fig7_engine.structural_matches(triangle_phi0)
        return next(m for m in matches if m.vertex_map[0] == "u3")

    def test_window_positions(self, u3_match):
        windows = list(
            iter_maximal_windows(u3_match.series[0], u3_match.series[-1], 10)
        )
        assert [(w.start, w.end) for w in windows] == [(10, 20), (15, 25)]

    def test_skipped_positions_without_rule(self, u3_match):
        """Disabling the skip rule exposes the [13,23] and [18,28] positions
        the paper explicitly skips."""
        windows = list(
            iter_maximal_windows(
                u3_match.series[0], u3_match.series[-1], 10, skip_rule=False
            )
        )
        assert [(w.start, w.end) for w in windows] == [
            (10, 20),
            (13, 23),
            (15, 25),
            (18, 28),
        ]


class TestFigure7Instances:
    """The instance walkthrough of Section 4 on the Figure 7 match."""

    def _u3_instances(self, engine, motif):
        result = engine.find_instances(motif)
        return [
            inst for inst in result.instances if inst.vertex_map[0] == "u3"
        ]

    def test_paper_instances_present(self, fig7_engine, triangle_phi0):
        """The two instances spelled out for prefix Tp=[10,10] exist."""
        keys = {
            _edge_events(i)
            for i in self._u3_instances(fig7_engine, triangle_phi0)
        }
        assert (
            ("u3", "u1", ((10, 5),)),
            ("u1", "u2", ((11, 3),)),
            ("u2", "u3", ((14, 4), (19, 6))),
        ) in keys
        assert (
            ("u3", "u1", ((10, 5),)),
            ("u1", "u2", ((11, 3), (16, 3))),
            ("u2", "u3", ((19, 6),)),
        ) in keys

    def test_full_maximal_instance_set(self, fig7_engine, triangle_phi0):
        """Exactly four maximal instances exist on the u3-anchored match
        (two per window; derived by hand in DESIGN.md §5)."""
        keys = {
            _edge_events(i)
            for i in self._u3_instances(fig7_engine, triangle_phi0)
        }
        assert keys == {
            (
                ("u3", "u1", ((10, 5),)),
                ("u1", "u2", ((11, 3),)),
                ("u2", "u3", ((14, 4), (19, 6))),
            ),
            (
                ("u3", "u1", ((10, 5),)),
                ("u1", "u2", ((11, 3), (16, 3))),
                ("u2", "u3", ((19, 6),)),
            ),
            (
                ("u3", "u1", ((10, 5), (13, 2), (15, 3))),
                ("u1", "u2", ((16, 3),)),
                ("u2", "u3", ((19, 6),)),
            ),
            (
                ("u3", "u1", ((15, 3),)),
                ("u1", "u2", ((16, 3),)),
                ("u2", "u3", ((19, 6), (24, 3), (25, 2))),
            ),
        }

    def test_invalid_prefix_not_extended(self, fig7_engine, triangle_phi0):
        """No instance assigns exactly {(10,5),(13,2)} to e1 — the paper's
        "no element of e2 between (13,2) and (15,3)" remark."""
        for instance in self._u3_instances(fig7_engine, triangle_phi0):
            assert tuple(instance.runs[0].items()) != ((10, 5), (13, 2))

    def test_phi5_rejects_low_flow_prefixes(self, fig7_engine):
        """With φ=5 any instance using e2 ← {(11,3)} alone is rejected."""
        motif = Motif.cycle(3, delta=10, phi=5)
        instances = self._u3_instances(fig7_engine, motif)
        keys = {_edge_events(i) for i in instances}
        assert keys == {
            (
                ("u3", "u1", ((10, 5),)),
                ("u1", "u2", ((11, 3), (16, 3))),
                ("u2", "u3", ((19, 6),)),
            ),
        }

    def test_all_outputs_valid_and_maximal(self, fig7_engine, triangle_phi0):
        graph = fig7_engine.time_series_graph
        for instance in fig7_engine.find_instances(triangle_phi0).instances:
            ok, reason = is_valid_instance(instance, graph)
            assert ok, reason
            assert is_maximal(instance)


class TestSection51TopOne:
    """The top-1 results that Table 2's DP trace computes."""

    def test_dp_top1_flow_is_5(self, fig7_engine, triangle_phi0):
        best = fig7_engine.top_one_dp(triangle_phi0)
        assert best.flow == 5.0

    def test_dp_top1_instance_matches_paper(self, fig7_engine, triangle_phi0):
        best = fig7_engine.top_one_dp(triangle_phi0)
        assert _edge_events(best.instance) == (
            ("u3", "u1", ((10, 5),)),
            ("u1", "u2", ((11, 3), (16, 3))),
            ("u2", "u3", ((19, 6),)),
        )

    def test_topk_k1_agrees_with_dp(self, fig7_engine, triangle_phi0):
        [best] = fig7_engine.top_k(triangle_phi0, 1)
        assert best.flow == 5.0


class TestFigure1Instances:
    """The introduction's chain-motif instances (Figures 1c/1d)."""

    def test_two_instances(self, fig1_graph):
        engine = FlowMotifEngine(fig1_graph)
        motif = Motif.chain(3, delta=5, phi=5)
        result = engine.find_instances(motif)
        keys = {_edge_events(i) for i in result.instances}
        assert keys == {
            (
                ("u4", "u1", ((1, 6),)),
                ("u1", "u2", ((2, 5), (4, 3))),
            ),
            (
                ("u1", "u2", ((2, 5),)),
                ("u2", "u3", ((3, 4), (5, 2))),
            ),
        }

"""The DP top-1 module (Algorithm 2 / Eq. 2) including the Table 2 example."""

from __future__ import annotations

import random

import pytest

from repro.core.dp import (
    max_flow_in_window,
    top_one_in_match,
    top_one_instance,
    top_one_per_window,
)
from repro.core.enumeration import find_instances
from repro.core.instance import is_valid_instance
from repro.core.matching import find_structural_matches
from repro.core.motif import Motif
from repro.core.windows import Window
from repro.graph.interaction import InteractionGraph


def random_graph(seed, nodes=6, events=45, horizon=50):
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        g.add_interaction(src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5))
    return g


@pytest.fixture
def fig7_match(fig7_graph):
    motif = Motif.cycle(3, delta=10, phi=0)
    matches = find_structural_matches(fig7_graph.to_time_series(), motif)
    return next(m for m in matches if m.vertex_map[0] == "u3")


class TestTable2:
    """The DP trace of Table 2 (window [10, 20] of the Figure 7 match).

    The printed table contains cell-level arithmetic typos (DESIGN.md §5
    errata) — e.g. ``Flow([10,15],1)`` is printed as 7 although the series
    prefix sums give 10, and the κ=3 column at t=14 prints 4 where Eq. 2
    yields 3 — but its *final* answer is unambiguous: the best instance in
    the window has flow 5 and is
    ``[e1←{(10,5)}, e2←{(11,3),(16,3)}, e3←{(19,6)}]``. We assert that.
    """

    def test_window_optimum_is_5(self, fig7_match):
        flow, _ = max_flow_in_window(
            fig7_match.series, Window(10, 20), method="quadratic"
        )
        assert flow == 5.0

    def test_reconstruction_matches_paper(self, fig7_match, fig7_graph):
        flow, intervals = max_flow_in_window(
            fig7_match.series, Window(10, 20), method="quadratic",
            reconstruct=True,
        )
        assert flow == 5.0
        result = top_one_in_match(fig7_match)
        events = [tuple(run.items()) for run in result.instance.runs]
        assert events == [
            ((10, 5),),
            ((11, 3), (16, 3)),
            ((19, 6),),
        ]
        ok, reason = is_valid_instance(
            result.instance, fig7_graph.to_time_series()
        )
        assert ok, reason

    def test_second_window_is_weaker(self, fig7_match):
        flow, _ = max_flow_in_window(fig7_match.series, Window(15, 25))
        assert flow == 3.0

    def test_base_row_prefix_sums(self, fig7_match):
        """Flow([t1,ti],1) is the running prefix sum of R(e1) — checked at
        the unambiguous columns of Table 2 (10→5, 13→7)."""
        flow, _ = max_flow_in_window(
            fig7_match.series, Window(10, 10), method="quadratic"
        )
        # Single timestamp: a 3-edge motif cannot fit; optimum is 0.
        assert flow == 0.0


class TestDPEqualsEnumerationMax:
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_top1(self, seed):
        g = random_graph(seed)
        motif = Motif.chain(3, delta=12, phi=0)
        matches = find_structural_matches(g.to_time_series(), motif)
        best_enum = max(
            (i.flow for i in find_instances(matches)), default=0.0
        )
        best_dp = top_one_instance(matches, reconstruct=False)
        assert best_dp.flow == pytest.approx(best_enum)

    @pytest.mark.parametrize("seed", range(4))
    def test_cycle_top1(self, seed):
        g = random_graph(seed, nodes=5, events=60)
        motif = Motif.cycle(3, delta=15, phi=0)
        matches = find_structural_matches(g.to_time_series(), motif)
        best_enum = max(
            (i.flow for i in find_instances(matches)), default=0.0
        )
        best_dp = top_one_instance(matches, reconstruct=False)
        assert best_dp.flow == pytest.approx(best_enum)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstructed_instance_achieves_flow(self, seed):
        g = random_graph(seed)
        motif = Motif.chain(4, delta=20, phi=0)
        ts = g.to_time_series()
        matches = find_structural_matches(ts, motif)
        best = top_one_instance(matches)
        if best.instance is None:
            assert best.flow == 0.0
            return
        assert best.instance.flow == pytest.approx(best.flow)
        ok, reason = is_valid_instance(best.instance, ts, phi=0.0)
        assert ok, reason


def tied_decimal_graph(seed, nodes=5, events=70, horizon=40):
    """Integer timestamps (so many ties) and one-decimal flows 0.1..0.9,
    whose sums are not exact in binary floating point."""
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        g.add_interaction(src, dst, rng.randrange(horizon), rng.randint(1, 9) / 10)
    return g


class TestMethodEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_methods_agree_on_tied_decimal_flows(self, seed):
        """Per match, every method finds the same best flow on tied
        timestamps and decimal flows, and the reconstructed instance
        achieves it."""
        g = tied_decimal_graph(seed)
        motif = Motif.chain(3, delta=18, phi=0)
        ts = g.to_time_series()
        matches = find_structural_matches(ts, motif)
        assert matches
        for match in matches[:10]:
            quad = top_one_in_match(match, method="quadratic", reconstruct=False)
            for method in ("fused", "auto"):
                best = top_one_in_match(match, method=method)
                assert best.flow == pytest.approx(quad.flow)
                if best.instance is not None:
                    assert best.instance.flow == pytest.approx(best.flow)

    @pytest.mark.parametrize("seed", range(10))
    def test_quadratic_vs_fused(self, seed):
        """The two-pointer fused sweep evaluates Eq. 2 exactly — per
        window (dense windows stress the crossing-pointer monotonicity)
        and per match."""
        g = random_graph(seed, nodes=4, events=90, horizon=30)
        motif = Motif.chain(3, delta=22, phi=0)
        ts = g.to_time_series()
        matches = find_structural_matches(ts, motif)
        from repro.core.windows import iter_maximal_windows

        for match in matches[:8]:
            for window in iter_maximal_windows(
                match.series[0], match.series[-1], 22
            ):
                quad = max_flow_in_window(
                    match.series, window, method="quadratic"
                )[0]
                fused = max_flow_in_window(match.series, window, method="fused")[0]
                assert fused == pytest.approx(quad)
            quad_best = top_one_in_match(match, method="quadratic", reconstruct=False)
            fused_best = top_one_in_match(match, method="fused", reconstruct=False)
            assert fused_best.flow == pytest.approx(quad_best.flow)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_reconstruction_is_valid_and_achieves_flow(self, seed):
        g = random_graph(seed, nodes=5, events=70, horizon=40)
        motif = Motif.chain(3, delta=18, phi=0)
        ts = g.to_time_series()
        matches = find_structural_matches(ts, motif)
        best = top_one_instance(matches, method="fused")
        if best.instance is None:
            assert best.flow == 0.0
            return
        assert best.instance.flow == pytest.approx(best.flow)
        ok, reason = is_valid_instance(best.instance, ts, phi=0.0)
        assert ok, reason

    def test_invalid_method_rejected(self, fig7_match):
        with pytest.raises(ValueError, match="method"):
            max_flow_in_window(fig7_match.series, Window(10, 20), method="magic")

    def test_bisect_method_removed(self, fig7_match):
        with pytest.raises(ValueError, match="method"):
            max_flow_in_window(fig7_match.series, Window(10, 20), method="bisect")
        with pytest.raises(ValueError, match="method"):
            top_one_in_match(fig7_match, method="bisect")


class TestExtensibilityVariants:
    def test_top_one_per_window(self, fig7_match):
        results = top_one_per_window(fig7_match)
        assert [(r.window.start, r.flow) for r in results] == [
            (10, 5.0), (15, 3.0),
        ]

    def test_top_one_per_match_selects_best_window(self, fig7_match):
        best = top_one_in_match(fig7_match)
        assert best.flow == 5.0
        assert best.window == Window(10, 20)

    def test_empty_matches(self):
        best = top_one_instance([])
        assert best.flow == 0.0
        assert best.instance is None

    def test_single_edge_motif(self):
        g = InteractionGraph.from_tuples(
            [("a", "b", 1, 2.0), ("a", "b", 3, 4.0), ("a", "b", 50, 1.0)]
        )
        motif = Motif.chain(2, delta=10, phi=0)
        matches = find_structural_matches(g.to_time_series(), motif)
        best = top_one_instance(matches)
        assert best.flow == 6.0

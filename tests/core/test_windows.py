"""Maximal δ-window iteration and the skip rule."""

from __future__ import annotations

import pytest

from repro.core.incremental import MatchProgress
from repro.core.windows import iter_maximal_windows
from repro.graph.timeseries import EdgeSeries


def series(*times):
    return EdgeSeries("u", "v", list(times), [1.0] * len(times))


class TestWindowAnchoring:
    def test_single_edge_motif_windows(self):
        s = series(0, 5, 20)
        windows = list(iter_maximal_windows(s, s, delta=10))
        # Anchor 0 covers {0,5}; anchor 5 adds nothing new past 5+10=15;
        # wait: last element <= 15 is 5 == previous → skipped; anchor 20 new.
        assert [(w.start, w.end) for w in windows] == [(0, 10), (20, 30)]

    def test_every_anchor_kept_when_new_content(self):
        first = series(0, 10, 20)
        last = EdgeSeries("v", "w", [5, 15, 25], [1.0] * 3)
        windows = list(iter_maximal_windows(first, last, delta=10))
        assert [(w.start, w.end) for w in windows] == [(0, 10), (10, 20), (20, 30)]

    def test_window_without_last_edge_content_dropped(self):
        first = series(0, 100)
        last = EdgeSeries("v", "w", [5, 105], [1.0, 1.0])
        windows = list(iter_maximal_windows(first, last, delta=10))
        assert [(w.start, w.end) for w in windows] == [(0, 10), (100, 110)]

    def test_last_event_before_anchor_dropped(self):
        first = series(50)
        last = EdgeSeries("v", "w", [10], [1.0])
        assert list(iter_maximal_windows(first, last, delta=10)) == []

    def test_tied_anchors_collapse(self):
        first = EdgeSeries("u", "v", [5, 5, 30], [1.0, 2.0, 3.0])
        last = EdgeSeries("v", "w", [6, 35], [1.0, 1.0])
        windows = list(iter_maximal_windows(first, last, delta=10))
        assert [(w.start, w.end) for w in windows] == [(5, 15), (30, 40)]

    def test_negative_delta_rejected(self):
        s = series(1)
        with pytest.raises(ValueError, match="non-negative"):
            list(iter_maximal_windows(s, s, delta=-1))

    def test_zero_delta(self):
        first = series(5, 7)
        last = EdgeSeries("v", "w", [5, 7], [1.0, 1.0])
        windows = list(iter_maximal_windows(first, last, delta=0))
        assert [(w.start, w.end) for w in windows] == [(5, 5), (7, 7)]


class TestSkipRule:
    def test_paper_example(self, fig7_graph):
        ts = fig7_graph.to_time_series()
        first = ts.series("u3", "u1")
        last = ts.series("u2", "u3")
        windows = list(iter_maximal_windows(first, last, delta=10))
        assert [(w.start, w.end) for w in windows] == [(10, 20), (15, 25)]

    def test_disabling_skip_rule_returns_all_anchors(self, fig7_graph):
        ts = fig7_graph.to_time_series()
        first = ts.series("u3", "u1")
        last = ts.series("u2", "u3")
        windows = list(
            iter_maximal_windows(first, last, delta=10, skip_rule=False)
        )
        assert [w.start for w in windows] == [10, 13, 15, 18]

    def test_skip_rule_monotone_last_content(self):
        """Kept windows have strictly increasing last-edge content."""
        first = series(0, 1, 2, 3, 4, 5, 6)
        last = EdgeSeries("v", "w", [2.5, 4.5, 12.5], [1.0] * 3)
        windows = list(iter_maximal_windows(first, last, delta=3))
        lams = []
        for w in windows:
            j = last.last_index_at_or_before(w.end)
            lams.append(last.times[j])
        assert lams == sorted(set(lams))


class TestOneWalk:
    """Shard ownership and streaming resumption are options of the same
    walk, so they cannot drift from the offline window set."""

    @staticmethod
    def spans(windows):
        return [(w.start, w.end) for w in windows]

    def test_resumed_walk_equals_one_uninterrupted_walk(self):
        first = series(0, 1, 1, 3, 7, 8, 12, 20)
        last = EdgeSeries("v", "w", [2, 4, 9, 13, 15, 26], [1.0] * 6)
        whole = self.spans(iter_maximal_windows(first, last, delta=5))
        cursor = MatchProgress()
        resumed = []
        for horizon in (0, 6, 6, 12.5, 13, 40, float("inf")):
            resumed += self.spans(
                iter_maximal_windows(
                    first, last, 5, cursor=cursor, horizon=horizon
                )
            )
        assert resumed == whole
        assert cursor.last_anchor == 20

    def test_horizon_waits_for_a_window_ending_on_it(self):
        # The last-edge event sits exactly at anchor + δ: the window holds
        # it, and it is final only once the horizon is past its end.
        first = series(0)
        last = EdgeSeries("v", "w", [10], [1.0])
        assert self.spans(iter_maximal_windows(first, last, 10)) == [(0, 10)]
        cursor = MatchProgress()
        assert list(
            iter_maximal_windows(first, last, 10, cursor=cursor, horizon=10)
        ) == []
        assert self.spans(
            iter_maximal_windows(first, last, 10, cursor=cursor, horizon=10.5)
        ) == [(0, 10)]

    def test_halo_windows_advance_the_skip_rule(self):
        # The halo window at 0 already reaches the last-edge event at 5, so
        # the owned window at 1 adds nothing new and stays skipped.
        first = series(0, 1, 30)
        last = EdgeSeries("v", "w", [5, 33], [1.0, 1.0])
        whole = self.spans(iter_maximal_windows(first, last, delta=10))
        assert whole == [(0, 10), (30, 40)]
        owned = self.spans(
            iter_maximal_windows(first, last, 10, anchor_range=(0.5, 30))
        )
        assert owned == []
        assert self.spans(
            iter_maximal_windows(first, last, 10, anchor_range=(0.5, 31))
        ) == [(30, 40)]

    def test_tied_anchors_walk_once_across_a_resume(self):
        first = EdgeSeries("u", "v", [5, 5, 5, 30], [1.0] * 4)
        last = EdgeSeries("v", "w", [6, 35], [1.0, 1.0])
        cursor = MatchProgress()
        head = self.spans(
            iter_maximal_windows(first, last, 10, cursor=cursor, horizon=20)
        )
        first.append(30, 1.0)  # another tie, on the pending anchor
        tail = self.spans(iter_maximal_windows(first, last, 10, cursor=cursor))
        assert head == [(5, 15)]
        assert tail == [(30, 40)]
        # Without the skip rule nothing else collapses the ties.
        unskipped = iter_maximal_windows(first, last, 10, skip_rule=False)
        assert self.spans(unskipped) == [(5, 15), (30, 40)]

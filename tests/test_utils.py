"""Utility helpers: the span clock, timing reports, tables, validation."""

from __future__ import annotations

import pytest

from repro.utils.tables import format_series, format_table
from repro.obs import tracing
from repro.utils.timing import ShardTiming, ShardTimingReport
from repro.utils.validation import require, require_non_negative, require_positive


class TestClock:
    def test_untraced_span_times_block_and_records_nothing(self):
        assert tracing.active() is None
        finished = []
        tracing.set_span_hook(finished.append)
        try:
            with tracing.span("utils.clock") as t:
                sum(range(100))
        finally:
            tracing.set_span_hook(None)
        assert t.elapsed >= 0.0
        assert finished == []


class TestShardTimingReport:
    def _report(self):
        return ShardTimingReport([
            ShardTiming(0, p1_seconds=1.0, p2_seconds=3.0),
            ShardTiming(1, p1_seconds=0.5, p2_seconds=0.5),
            ShardTiming(2, p2_seconds=1.0),
        ], wall_seconds=4.5)

    def test_aggregates(self):
        report = self._report()
        assert report.num_shards == 3
        assert report.max_seconds == 4.0
        assert report.sum_seconds == 6.0
        assert report.mean_seconds == 2.0
        assert report.imbalance_ratio == 2.0

    def test_empty_report_is_balanced(self):
        report = ShardTimingReport()
        assert report.num_shards == 0
        assert report.max_seconds == report.sum_seconds == 0.0
        assert report.mean_seconds == 0.0
        assert report.imbalance_ratio == 1.0

    def test_summary_matches_properties(self):
        report = self._report()
        assert report.summary() == {
            "num_shards": 3,
            "wall_seconds": 4.5,
            "max_seconds": 4.0,
            "sum_seconds": 6.0,
            "mean_seconds": 2.0,
            "imbalance_ratio": 2.0,
        }


class TestTables:
    def test_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "long_header" in lines[0]

    def test_markdown(self):
        text = format_table(["x"], [[1]], markdown=True)
        assert text.splitlines()[0] == "| x |"
        assert text.splitlines()[1].startswith("|-")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[1.23456789]])
        assert "1.235" in text

    def test_series(self):
        text = format_series("k", [1, 5], {"M(3,2)": [10, 8], "M(3,3)": [4, 2]})
        lines = text.splitlines()
        assert lines[0].split()[:1] == ["k"]
        assert "M(3,2)" in lines[0] and "M(3,3)" in lines[0]
        assert len(lines) == 4

    def test_series_short_line_padded(self):
        text = format_series("k", [1, 5], {"a": [10]})
        assert text  # missing values render as blanks, no crash


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    @pytest.mark.parametrize("value", [1, 0.5, 1e9])
    def test_positive_ok(self, value):
        require_positive(value, "x")

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError):
            require_positive(value, "x")

    def test_positive_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            require_positive("3", "x")
        with pytest.raises(TypeError):
            require_positive(True, "x")

    def test_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

"""Unit tests for the shared benchmark harness helpers (repro.benchmarks)."""

from repro.benchmarks.harness import time_callable
from repro.benchmarks.reporting import format_series, format_speedups, format_table


class TestHarness:
    def test_time_callable_returns_result_and_time(self):
        seconds, result = time_callable(lambda: sum(range(1000)), repeats=3)
        assert result == sum(range(1000))
        assert seconds >= 0.0


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["long-name", 2]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.2346" in table
        assert "long-name" in table
        # Header, separator and two data rows.
        assert len(lines) == 4

    def test_format_series_from_mapping_and_pairs(self):
        from_mapping = format_series({1: 0.5, 2: 0.25}, x_label="s", y_label="value")
        from_pairs = format_series([(1, 0.5), (2, 0.25)], x_label="s", y_label="value")
        assert from_mapping == from_pairs
        assert "s" in from_mapping.splitlines()[0]

    def test_format_speedups_sorted_descending(self):
        table = format_speedups({"slow": 1.0, "fast": 8.0, "mid": 3.0}, baseline="slow")
        rows = table.splitlines()[2:]
        assert rows[0].startswith("fast")
        assert rows[-1].startswith("slow")

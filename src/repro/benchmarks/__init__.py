"""Shared infrastructure for the experiment-reproduction benchmarks.

The ``benchmarks/`` directory at the repository root contains one module per
table/figure of the paper; they all use the helpers here to pick quick
mode, time a callable and print the rows/series the paper reports.
"""

from repro.benchmarks.harness import quick_mode, time_callable
from repro.benchmarks.reporting import format_table, format_series, format_speedups

__all__ = [
    "quick_mode",
    "time_callable",
    "format_table",
    "format_series",
    "format_speedups",
]

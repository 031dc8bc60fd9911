"""Plain-text rendering of benchmark results.

Every reproduction benchmark prints the same kind of artefact the paper
presents — a table of rows (Tables I, II, IV, V) or a series of (x, y)
points (Figures 4, 6–11) — so the comparison with the paper can be read
directly off the benchmark output (docs/ARCHITECTURE.md, "Which kernel runs
where", says which kernels those benchmarks time).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], float_format: str = "{:.4f}"
) -> str:
    """Format rows as a fixed-width text table."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(
    series: Mapping[object, float] | Sequence[Tuple[object, float]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Format an (x, y) series as a two-column table (one figure curve)."""
    if isinstance(series, Mapping):
        items = list(series.items())
    else:
        items = list(series)
    return format_table([x_label, y_label], items)


def format_speedups(speedups: Mapping[str, float], baseline: str) -> str:
    """Format a speedup table relative to ``baseline``."""
    rows = [(name, value) for name, value in speedups.items()]
    rows.sort(key=lambda kv: -kv[1])
    return format_table(["variant", f"speedup vs {baseline}"], rows, float_format="{:.2f}")

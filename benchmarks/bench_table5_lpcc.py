"""Table V — label-propagation connected components: clique expansion (s=1) vs. s=8.

The paper's Table V reports end-to-end LPCC times with Algorithm 2 (2CA) for
s = 1 and s = 8 on four large datasets; with s = 1 two of them (com-Orkut,
Web) run out of memory on a 128 GB machine, while s = 8 completes everywhere
and is several times faster.  We reproduce the structure with a memory model:
the estimated footprint of the s = 1 line graph is compared against a
scaled-down budget, and datasets that exceed it are reported as OOM exactly
like the paper's table.
"""

from __future__ import annotations

from repro.benchmarks.harness import time_callable
from repro.benchmarks.reporting import format_table
from repro.core.pipeline import SLinePipeline

DATASET_NAMES = ["friendster", "livejournal", "com-orkut", "web"]
#: Bytes per s-line-graph edge in the squeezed CSR representation
#: (two int64 endpoints stored twice + weight).
BYTES_PER_EDGE = 40


def memory_budget_bytes(scale: float) -> int:
    """Scaled-down stand-in for the paper's 128 GB node.

    The surrogates shrink roughly linearly in |E| with ``scale`` while their
    clique expansions shrink roughly quadratically, so a quadratic budget
    keeps the qualitative outcome (dense s = 1 expansions exceed the budget,
    every s = 8 line graph fits) stable across bench scales.
    """
    return int(8_000_000 * scale * scale)


def run_lpcc(h, s):
    pipeline = SLinePipeline(
        algorithm="vectorized", relabel="ascending", metrics=("lpcc",),
        config=None,
    )
    elapsed, result = time_callable(lambda: pipeline.run(h, s))
    footprint = result.num_line_graph_edges * BYTES_PER_EDGE
    return elapsed, footprint, result


def test_table5_lpcc_s1_vs_s8(datasets, bench_scale, benchmark, report):
    budget = memory_budget_bytes(bench_scale)

    def collect():
        rows = {}
        for name in DATASET_NAMES:
            h = datasets(name)
            rows[name] = {s: run_lpcc(h, s) for s in (1, 8)}
        return rows

    outcomes = benchmark.pedantic(collect, rounds=1, iterations=1)
    headers = ["s", *DATASET_NAMES]
    rows = []
    oom = {}
    for s in (1, 8):
        row = [f"s={s}"]
        for name in DATASET_NAMES:
            elapsed, footprint, _ = outcomes[name][s]
            if footprint > budget:
                row.append("OOM")
                oom[(name, s)] = True
            else:
                row.append(f"{elapsed:.2f}s")
                oom[(name, s)] = False
        rows.append(row)
    table = format_table(headers, rows)
    report(
        "Table V reproduction (LPCC end-to-end; OOM = exceeds the scaled memory budget)\n"
        + table,
        name="table5_lpcc",
    )

    # Shape checks: s = 8 always fits and is cheaper than (or comparable to) s = 1;
    # the densest clique expansions blow the budget, as in the paper.
    for name in DATASET_NAMES:
        assert not oom[(name, 8)], name
        _, footprint1, _ = outcomes[name][1]
        _, footprint8, _ = outcomes[name][8]
        assert footprint8 < footprint1, name
    assert any(oom[(name, 1)] for name in DATASET_NAMES)


def test_bench_lpcc_s8_livejournal(datasets, benchmark):
    h = datasets("livejournal")
    benchmark.pedantic(lambda: run_lpcc(h, 8), rounds=2, iterations=1)

"""Engine sweep vs. per-s pipeline — the compute-once/serve-any-s payoff.

Every s-line graph is a threshold view of one weighted overlap structure
(Section II-B), so a multi-s study should pay the counting cost once.  This
benchmark runs an s = 1..8 sweep on a generated Table IV surrogate twice:

* baseline — eight independent :class:`~repro.core.SLinePipeline` runs,
  each repeating preprocessing, s-overlap counting, squeezing and metrics;
* engine — one :class:`~repro.engine.QueryEngine.sweep` call, which builds
  the overlap index once and serves each s as a binary-search slice.

The engine must be at least 3x faster end to end (it is typically much
more); a second sweep over the same range must then be served entirely from
the LRU cache.  Both paths are cross-checked edge-for-edge first.
"""

from __future__ import annotations

import time

import pytest

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.core.pipeline import SLinePipeline
from repro.engine.engine import QueryEngine

S_RANGE = range(1, 9)
METRICS = ("connected_components",)

#: Quick mode (REPRO_BENCH_QUICK=1, the CI perf-smoke job): smaller
#: surrogate and a laxer floor — fixed overheads weigh more at small scale.
BENCH_QUICK = quick_mode()
BENCH_SCALE = 0.6 if BENCH_QUICK else 1.2
MIN_SPEEDUP = 2.5 if BENCH_QUICK else 3.0
ROUNDS = 2 if BENCH_QUICK else 3


@pytest.fixture(scope="module")
def bench_hypergraph(datasets):
    # Above bench scale so the per-s wedge walks dominate fixed overheads.
    return datasets("email-euall", scale=BENCH_SCALE)


def _run_pipeline_baseline(h):
    pipeline = SLinePipeline(metrics=METRICS)
    return {s: pipeline.run(h, s) for s in S_RANGE}


def test_engine_sweep_matches_pipeline(bench_hypergraph):
    """The sweep serves exactly what the per-s pipeline computes."""
    engine = QueryEngine(bench_hypergraph)
    sweep = engine.sweep(S_RANGE, metrics=METRICS)
    baseline = _run_pipeline_baseline(bench_hypergraph)
    for s in S_RANGE:
        assert engine.line_graph(s) == baseline[s].line_graph
        assert sweep.edge_counts[s] == baseline[s].line_graph.num_edges
        assert sweep.num_components(s) == baseline[s].num_components()


def test_engine_sweep_speedup(bench_hypergraph, report):
    """One index build + 8 threshold views >= 3x faster than 8 pipeline runs.

    Both paths are timed best-of-three (each engine rep builds a fresh
    index) so a stray GC pause or cold cache cannot decide the comparison.
    """
    rounds = ROUNDS
    baseline_seconds = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        baseline = _run_pipeline_baseline(bench_hypergraph)
        baseline_seconds = min(baseline_seconds, time.perf_counter() - start)

    engine_seconds = float("inf")
    for _ in range(rounds):
        engine = QueryEngine(bench_hypergraph)
        start = time.perf_counter()
        sweep = engine.sweep(S_RANGE, metrics=METRICS)
        engine_seconds = min(engine_seconds, time.perf_counter() - start)

    start = time.perf_counter()
    engine.sweep(S_RANGE, metrics=METRICS)
    cached_seconds = time.perf_counter() - start

    speedup = baseline_seconds / engine_seconds
    rows = [
        [s, sweep.edge_counts[s], sweep.num_components(s)] for s in sweep.s_values
    ]
    report(
        f"Engine sweep (s = 1..8, email-euall surrogate x{BENCH_SCALE})\n"
        + format_table(["s", "edges", "components"], rows)
        + f"\nper-s pipeline: {baseline_seconds:.4f}s   "
        + f"engine sweep: {engine_seconds:.4f}s ({speedup:.1f}x)   "
        + f"cached re-sweep: {cached_seconds:.4f}s",
        name="engine_sweep",
        data={
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "baseline_seconds": baseline_seconds,
            "engine_seconds": engine_seconds,
            "cached_seconds": cached_seconds,
        },
    )

    for s in S_RANGE:
        assert sweep.edge_counts[s] == baseline[s].num_line_graph_edges
    assert speedup >= MIN_SPEEDUP
    assert cached_seconds < engine_seconds
    assert engine.stats().index_builds == 1


def test_bench_engine_sweep(bench_hypergraph, benchmark):
    """Timed variant for the pytest-benchmark harness (fresh engine per round)."""
    benchmark.pedantic(
        lambda: QueryEngine(bench_hypergraph).sweep(S_RANGE, metrics=METRICS),
        rounds=2,
        iterations=1,
    )


def test_bench_engine_cached_queries(bench_hypergraph, benchmark):
    """Steady-state query traffic: every request is an LRU cache hit."""
    engine = QueryEngine(bench_hypergraph)
    engine.sweep(S_RANGE, metrics=METRICS)  # warm
    misses_after_warm = engine.stats().cache_misses

    def serve():
        for s in S_RANGE:
            engine.line_graph(s)
            engine.metric(s, "connected_components")

    benchmark.pedantic(serve, rounds=5, iterations=1)
    assert engine.stats().cache_misses == misses_after_warm

"""Figure 8 — strong scaling of Algorithm 2 (1..32 threads, s = 8).

The paper doubles the thread count at fixed input size for LiveJournal,
com-Orkut, activeDNS and Web and observes improvement up to 16 threads, with
cyclic distribution (2CA) scaling best on skew-degree inputs.

A faithful wall-clock reproduction of thread scaling is impossible in pure
Python (the GIL serialises the dict-based kernels — the repro band for this
paper explicitly flags this), so this benchmark reports two complementary
views, as documented in docs/ARCHITECTURE.md ("Which kernel runs where"):

* a *work model*: the maximum per-worker wedge count, which is what an
  ideally-scheduled execution's critical path is proportional to — this is
  substrate-independent and must shrink as workers double;
* measured wall-clock with the ``thread`` backend for the block kernel
  (``vectorized``, which releases the GIL inside its gathers and sorts) and
  with the ``process`` backend for the dict kernel.
"""

from __future__ import annotations

import time

import pytest

from repro.benchmarks.reporting import format_table
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.core.algorithms.vectorized import s_line_graph_vectorized
from repro.parallel.executor import ParallelConfig

S_VALUE = 8
WORKER_COUNTS = [1, 2, 4, 8]
DATASET_NAMES = ["livejournal", "com-orkut"]


def critical_path_wedges(h, workers, strategy="cyclic"):
    """Max per-worker wedge visits — the work-model critical path."""
    result = s_line_graph_hashmap(
        h, S_VALUE, config=ParallelConfig(num_workers=workers, strategy=strategy)
    )
    return int(result.workload.visits_per_worker().max())


def test_fig8_strong_scaling_work_model(datasets, benchmark, report):
    def collect():
        out = {}
        for name in DATASET_NAMES:
            h = datasets(name)
            out[name] = {p: critical_path_wedges(h, p) for p in WORKER_COUNTS}
        return out

    model = benchmark.pedantic(collect, rounds=1, iterations=1)
    headers = ["workers"] + [f"{name} max wedges/worker" for name in DATASET_NAMES]
    rows = [
        [p] + [model[name][p] for name in DATASET_NAMES] for p in WORKER_COUNTS
    ]
    report(
        "Figure 8 reproduction (work model): critical-path wedge count vs workers\n"
        + format_table(headers, rows),
        name="fig8_strong_scaling_work_model",
    )

    for name in DATASET_NAMES:
        series = [model[name][p] for p in WORKER_COUNTS]
        # The critical path shrinks monotonically as workers double ...
        assert all(b <= a for a, b in zip(series, series[1:])), name
        # ... and achieves at least half of ideal scaling at 8 workers.
        assert series[0] / series[-1] >= WORKER_COUNTS[-1] / 2, name


def test_fig8_strong_scaling_wallclock(datasets, benchmark, report):
    h = datasets("livejournal")

    def sweep():
        rows = []
        for workers in WORKER_COUNTS:
            config = ParallelConfig(num_workers=workers, strategy="cyclic", backend="thread")
            start = time.perf_counter()
            s_line_graph_vectorized(h, S_VALUE, config=config)
            rows.append((workers, time.perf_counter() - start))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Figure 8 reproduction (wall-clock, vectorised kernel, thread backend)\n"
        + format_table(["workers", "seconds"], [[p, round(t, 4)] for p, t in rows]),
        name="fig8_strong_scaling_wallclock",
    )
    # This measurement is informational (docs/ARCHITECTURE.md, "Which kernel
    # runs where", records what CPython threads do and do not buy: flat at
    # this size, 1.26–1.35x at scale 16); the only assertion is that
    # adding threads does not blow the runtime up by an order of magnitude on
    # a sub-100ms kernel, i.e. the thread backend is not pathological.
    assert rows[-1][1] < 10.0 * max(rows[0][1], 1e-3)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_bench_hashmap_by_worker_count(datasets, benchmark, workers):
    """Per-worker-count wall clock of the hashmap kernel (serial partition sweep)."""
    h = datasets("livejournal")
    config = ParallelConfig(num_workers=workers, strategy="cyclic", backend="thread")
    benchmark.pedantic(
        lambda: s_line_graph_hashmap(h, S_VALUE, config=config), rounds=2, iterations=1
    )

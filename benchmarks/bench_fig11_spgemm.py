"""Figure 11 — comparison with the SpGEMM-based approach across s values.

The paper compares SpGEMM+Filter and SpGEMM+Filter+Upper against Algorithm 1
(1CA) and Algorithm 2 (2BA) on email-EuAll and Friendster for growing s,
finding that the hashmap algorithm always wins and that the gap widens with
s (degree pruning removes ever more work while the SpGEMM cost is
s-independent because the full product must be materialised first).
"""

from __future__ import annotations

import pytest

from repro.benchmarks.harness import time_callable
from repro.benchmarks.reporting import format_table
from repro.core.algorithms.registry import run_variant
from repro.core.algorithms.spgemm import s_line_graph_spgemm, s_line_graph_spgemm_upper

S_SWEEP = {
    "email-euall": [2, 4, 8, 16, 32],
    "friendster": [2, 4, 8, 16, 32, 64],
}
NUM_WORKERS = 2
#: Best-of-N timing per point: these kernels run in single-digit milliseconds,
#: so a single sample is dominated by scheduler/GC noise.
REPEATS = 3


def _timed(fn):
    seconds, result = time_callable(fn, repeats=REPEATS)
    return seconds, result


def measure(h, s):
    """Time the four Figure 11 methods plus a compiled-SpGEMM reference point.

    The paper's SpGEMM library and its algorithms run on the same (C++)
    substrate; here the like-for-like comparison keeps every method in pure
    Python (``gustavson`` kernel), while the scipy product is reported as an
    extra reference column (see "Which kernel runs where" in
    docs/ARCHITECTURE.md).
    """
    spgemm_t, spgemm_r = _timed(lambda: s_line_graph_spgemm(h, s, kernel="gustavson"))
    scipy_t, scipy_r = _timed(lambda: s_line_graph_spgemm(h, s, kernel="scipy"))
    upper_t, upper_r = _timed(lambda: s_line_graph_spgemm_upper(h, s))
    h1ca_t, h1ca_r = _timed(lambda: run_variant(h, s, "1CA", num_workers=NUM_WORKERS))
    h2ba_t, h2ba_r = _timed(lambda: run_variant(h, s, "2BA", num_workers=NUM_WORKERS))
    # All methods must agree on the result.
    assert spgemm_r.graph.edge_set() == upper_r.graph.edge_set()
    assert spgemm_r.graph.edge_set() == scipy_r.graph.edge_set()
    assert spgemm_r.graph.edge_set() == h1ca_r.graph.edge_set()
    assert spgemm_r.graph.edge_set() == h2ba_r.graph.edge_set()
    return {
        "SpGEMM+Filter": spgemm_t,
        "SpGEMM+Filter+Upper": upper_t,
        "1CA": h1ca_t,
        "2BA": h2ba_t,
        "SpGEMM+Filter (scipy ref)": scipy_t,
    }


@pytest.mark.parametrize("dataset_name", sorted(S_SWEEP))
def test_fig11_spgemm_comparison(datasets, benchmark, report, dataset_name):
    h = datasets(dataset_name)
    s_values = S_SWEEP[dataset_name]

    def sweep():
        return {s: measure(h, s) for s in s_values}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    methods = [
        "SpGEMM+Filter",
        "SpGEMM+Filter+Upper",
        "1CA",
        "2BA",
        "SpGEMM+Filter (scipy ref)",
    ]
    rows = [
        [s] + [round(results[s][m] * 1e3, 2) for m in methods] for s in s_values
    ]
    report(
        f"Figure 11 reproduction ({dataset_name}): runtime (ms) vs s\n"
        + format_table(["s"] + methods, rows),
        name=f"fig11_spgemm_{dataset_name}",
    )

    # Shape checks (robust to per-point timing noise on millisecond kernels):
    # the hashmap variant (2BA) beats the full SpGEMM+Filter baseline over the
    # sweep and is never meaningfully slower at any single s; against
    # SpGEMM+Filter+Upper the paper (and our surrogate) sees a near-tie at the
    # smallest s on Friendster-like inputs, with the hashmap algorithm clearly
    # ahead at the largest s (degree pruning removes more work while the
    # SpGEMM cost stays s-independent).
    small, large = s_values[0], s_values[-1]
    total = {m: sum(results[s][m] for s in s_values) for m in
             ("SpGEMM+Filter", "SpGEMM+Filter+Upper", "2BA")}
    assert total["2BA"] < total["SpGEMM+Filter"]
    assert total["2BA"] < 1.2 * total["SpGEMM+Filter+Upper"]
    for s in s_values:
        assert results[s]["2BA"] < 1.6 * results[s]["SpGEMM+Filter"]
        assert results[s]["2BA"] < 1.6 * results[s]["SpGEMM+Filter+Upper"]
    assert results[large]["2BA"] < results[large]["SpGEMM+Filter+Upper"]
    gap_small = results[small]["SpGEMM+Filter+Upper"] / results[small]["2BA"]
    gap_large = results[large]["SpGEMM+Filter+Upper"] / results[large]["2BA"]
    assert gap_large >= gap_small * 0.8  # the gap does not shrink meaningfully with s


def test_bench_spgemm_filter_email(datasets, benchmark):
    h = datasets("email-euall")
    benchmark(lambda: s_line_graph_spgemm(h, 8))


def test_bench_hashmap_2ba_email(datasets, benchmark):
    h = datasets("email-euall")
    benchmark(lambda: run_variant(h, 8, "2BA", num_workers=NUM_WORKERS))

"""Persistent store reuse — cold rebuild vs warm mmap open vs WAL replay.

The store subsystem's contract: the wedge-enumeration pass that builds the
overlap index is paid once, persisted, and every later process opens the
snapshot instead of recomputing.  This benchmark times three ways to reach
"serving an s = 1..8 sweep":

* **cold** — build the :class:`OverlapIndex` from the hypergraph, sweep;
* **warm** — open the store, mmap the shards (:class:`ShardedIndex`), sweep;
* **replay** — same, with a write-ahead log of incremental updates to fold
  in first (the recovery path after a crash or between compactions).

All three must serve the same graphs, and an out-of-core
:class:`ShardedIndex` whose shards are each far smaller than the whole index
must serve sweeps identical to the in-memory oracle.  The seconds are
reported, not gated: on this fixture (3.9k / 9.5k pairs) both arms take
~2 ms since the index is built by the block kernel, so their ratio measures
fixed costs.  ``benchmarks/e2e`` measures each arm absolutely
(``engine.index_build_s``, ``store.open_ms``, ``store.line_graph_cold_ms``).
"""

from __future__ import annotations

import time

import pytest

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine.engine import QueryEngine
from repro.engine.index import OverlapIndex
from repro.store import IndexStore, PersistentQueryEngine
from repro.utils.rng import make_rng

S_RANGE = range(1, 9)
NUM_SHARDS = 8

#: Quick mode (REPRO_BENCH_QUICK=1, the CI perf-smoke job): smaller surrogate.
BENCH_QUICK = quick_mode()
BENCH_SCALE = 0.8 if BENCH_QUICK else 2.0
ROUNDS = 2 if BENCH_QUICK else 3


@pytest.fixture(scope="module")
def bench_hypergraph(datasets):
    # Large enough that the one-off counting pass dominates fixed overheads.
    return datasets("email-euall", scale=BENCH_SCALE)


@pytest.fixture(scope="module")
def store_dir(bench_hypergraph, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "idx"
    IndexStore.build(bench_hypergraph, path, num_shards=NUM_SHARDS)
    return path


def _cold_sweep(h):
    index = OverlapIndex.build(h)
    return index, {s: index.line_graph(s) for s in S_RANGE}


def _warm_sweep(path):
    store = IndexStore.open(path)
    sharded = store.sharded_index()
    return sharded, sharded.sweep(S_RANGE)


def test_sharded_sweep_identical_to_in_memory(bench_hypergraph, store_dir):
    """Out-of-core serving is exact: every L_s matches the oracle, s = 1..8.

    The shard cap (8 row blocks) keeps each shard well below the total
    index size, so the comparison genuinely exercises cross-shard stitching.
    """
    oracle = OverlapIndex.build(bench_hypergraph)
    store = IndexStore.open(store_dir)
    sharded = store.sharded_index(max_resident_shards=2)
    per_shard = max(i.num_pairs for i in store.manifest.shards)
    assert per_shard < oracle.num_pairs  # capped below total index size
    for s in S_RANGE:
        assert sharded.line_graph(s) == oracle.line_graph(s), s
    assert sharded.s_profile() == oracle.s_profile()


def test_store_reuse_speedup(bench_hypergraph, store_dir, report):
    """Cold rebuild, warm mmap open and WAL replay serve the same sweep.

    Each path is timed best-of-three and reported; the WAL-replay path is
    open + fold 20 logged updates + sweep.
    """
    cold_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _, cold_graphs = _cold_sweep(bench_hypergraph)
        cold_seconds = min(cold_seconds, time.perf_counter() - start)

    warm_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        sharded, warm_graphs = _warm_sweep(store_dir)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)

    # WAL replay path: log 20 incremental updates, then recover + sweep.
    engine = PersistentQueryEngine.open(store_dir)
    rng = make_rng(5)
    h = engine.hypergraph
    for _ in range(15):
        members = rng.choice(h.num_vertices, size=5, replace=False).tolist()
        engine.add_hyperedge(members)
    for _ in range(5):
        engine.remove_hyperedge(int(rng.integers(h.num_edges)))
    replay_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _, replay_graphs = _warm_sweep(store_dir)
        replay_seconds = min(replay_seconds, time.perf_counter() - start)
    # The replayed state equals a from-scratch engine over the updated graph.
    oracle = QueryEngine(engine.hypergraph)
    for s in S_RANGE:
        assert replay_graphs[s] == oracle.line_graph(s), s
    engine.store.compact()  # leave the shared store clean for other tests

    speedup = cold_seconds / warm_seconds
    rows = [[s, warm_graphs[s].num_edges] for s in S_RANGE]
    report(
        f"Store reuse (s = 1..8 sweep, email-euall surrogate x{BENCH_SCALE}, "
        f"{NUM_SHARDS} shards)\n"
        + format_table(["s", "edges"], rows)
        + f"\ncold rebuild + sweep:   {cold_seconds:.4f}s"
        + f"\nwarm mmap open + sweep: {warm_seconds:.4f}s ({speedup:.1f}x)"
        + f"\nWAL replay (20 ops) + sweep: {replay_seconds:.4f}s",
        name="store_reuse",
        data={
            "speedup": speedup,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "replay_seconds": replay_seconds,
        },
    )

    for s in S_RANGE:
        assert warm_graphs[s] == cold_graphs[s], s


def test_bench_warm_open_sweep(store_dir, benchmark):
    """Timed variant for the pytest-benchmark harness (fresh open per round)."""
    benchmark.pedantic(lambda: _warm_sweep(store_dir), rounds=5, iterations=1)


def test_bench_cold_build_sweep(bench_hypergraph, benchmark):
    """The baseline the snapshot amortises away."""
    benchmark.pedantic(
        lambda: _cold_sweep(bench_hypergraph), rounds=2, iterations=1
    )

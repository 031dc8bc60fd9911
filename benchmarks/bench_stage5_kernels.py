"""Stage 5 kernels on the served fixture: closeness, eccentricity, betweenness.

The three all-sources s-measures share one traversal,
:func:`repro.graph.bfs.levels` — a level-synchronous BFS over a block of
sources, one sparse × dense product per level — so this bench times each
on the squeezed ``L_s`` the server hands Stage 5 (livejournal surrogate
x2, seed 1, the ``benchmarks/e2e`` fixture) at s = 2..4, and checks every
answer against an oracle that shares no code with that loop:

* closeness, bit for bit, and eccentricity, exactly, against the hop
  distances of ``scipy.sparse.csgraph.shortest_path`` reduced the same way
  (the route the level loop replaced, kept here as the reference);
* betweenness against :func:`networkx.betweenness_centrality` to a
  relative 1e-12 (docs/PROTOCOL.md §3.1).

Each ``<name>_ms`` is printed as its own row per s, beside the oracle's
time; nothing is gated on time.  networkx costs O(n·m) in Python, so at
the served scale it checks betweenness at the largest s only; quick mode
(REPRO_BENCH_QUICK=1, the CI serving-benches step) checks every s on a
sixteenth of the fixture.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine.engine import QueryEngine
from repro.generators.datasets import load_dataset
from repro.graph import betweenness_centrality, closeness_centrality, eccentricity
from repro.graph.bfs import source_blocks

S_VALUES = (2, 3, 4)
SEED = 1
BENCH_QUICK = quick_mode()
BENCH_SCALE = 0.125 if BENCH_QUICK else 2.0
NETWORKX_S_VALUES = S_VALUES if BENCH_QUICK else S_VALUES[-1:]


def csgraph_hops(graph):
    """``(sources, hop distances)`` per source block, one row per source
    and −1 where unreachable, from ``csgraph.shortest_path``."""
    adjacency = graph.adjacency_matrix()
    for sources in source_blocks(graph.num_vertices):
        dist = csgraph.shortest_path(adjacency, unweighted=True, indices=sources)
        dist[np.isinf(dist)] = -1
        yield sources, dist.astype(np.int64)


def csgraph_closeness(graph):
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.float64)
    for sources, dist in csgraph_hops(graph):
        count = np.count_nonzero(dist > 0, axis=1)
        total = np.maximum(dist, 0).sum(axis=1)
        some = total > 0
        out[sources[some]] = (count[some] / total[some]) * (count[some] / (n - 1))
    return out


def csgraph_eccentricity(graph):
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    for sources, dist in csgraph_hops(graph):
        out[sources] = dist.max(axis=1)
    return out


def networkx_betweenness(graph):
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.num_vertices))
    rows = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    reference.add_edges_from(zip(rows.tolist(), graph.indices.tolist()))
    scores = nx.betweenness_centrality(reference, normalized=True)
    return np.array([scores[v] for v in range(graph.num_vertices)])


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_exact(got, want):
    assert got.tolist() == want.tolist()


def assert_within_contract(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


#: name -> (kernel, oracle, check, the s values the oracle runs at).
KERNELS = {
    "closeness": (closeness_centrality, csgraph_closeness, assert_bit_identical, S_VALUES),
    "eccentricity": (eccentricity, csgraph_eccentricity, assert_exact, S_VALUES),
    "betweenness": (
        betweenness_centrality,
        networkx_betweenness,
        assert_within_contract,
        NETWORKX_S_VALUES,
    ),
}


def timed(fn, graph):
    start = time.perf_counter()
    out = fn(graph)
    return out, (time.perf_counter() - start) * 1e3


@pytest.fixture(scope="module")
def squeezed():
    """The squeezed ``L_s`` a served metric request reads, per s."""
    engine = QueryEngine(load_dataset("livejournal", scale=BENCH_SCALE, seed=SEED))
    return {s: engine.squeezed_graph(s)[0] for s in S_VALUES}


def test_stage5_kernels_equal_their_oracles(squeezed, report):
    rows = []
    for name, (kernel, oracle, check, oracle_s_values) in KERNELS.items():
        for s in S_VALUES:
            graph = squeezed[s]
            got, ms = timed(kernel, graph)
            oracle_ms = "-"
            if s in oracle_s_values:
                want, oracle_ms = timed(oracle, graph)
                check(got, want)
            nnz = graph.indices.size
            rows.append((f"{name}_ms", s, graph.num_vertices, nnz, ms, oracle_ms))
    report(
        f"Stage 5 kernels on the squeezed L_s (livejournal surrogate x{BENCH_SCALE:g}, "
        f"seed {SEED}; one run each, ms; oracle: csgraph for closeness / "
        "eccentricity, networkx for betweenness)\n"
        + format_table(["metric", "s", "n", "nnz", "ms", "oracle_ms"], rows, "{:.1f}")
    )

"""The block kernel (``vectorized``) equals the per-hyperedge reference kernels.

``repro.core.algorithms.vectorized`` counts the wedges of a whole block of
hyperedges with one sort instead of one Python ``dict`` per hyperedge.  The
``hashmap`` kernel is the reference: same bytes, same dtypes, same layout
and the same three work counters per worker, for every threshold, every
partitioning of the outer loop and every wedge budget — including budgets
so small that every hyperedge is its own block or exceeds the budget.

Every other list-walking reference kernel — both ``hashmap`` counter
policies, the Algorithm 3 ensemble, Algorithm 1 and the Gustavson SpGEMM
arms — returns the block kernel's pairs and weights, on the drawn
hypergraph and on a vertex-relabelled copy whose vertex rows descend.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import vectorized
from repro.core.algorithms.ensemble import s_line_graph_ensemble_hashmap
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.core.algorithms.heuristic import s_line_graph_heuristic
from repro.core.algorithms.spgemm import s_line_graph_spgemm, s_line_graph_spgemm_upper
from repro.core.algorithms.vectorized import s_line_graph_vectorized
from repro.generators.datasets import load_dataset
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.utils.validation import ValidationError

from tests.conftest import PAPER_EXAMPLE_OVERLAPS, PAPER_EXAMPLE_SLINE_EDGES

CONFIGS = [
    ParallelConfig(num_workers=workers, strategy=strategy, grainsize=grainsize)
    for strategy in ("blocked", "cyclic")
    for workers in (1, 2, 3, 4)
    for grainsize in (None, 1, 3)
]


@st.composite
def hypergraphs(draw):
    """Up to 12 hyperedges: empty ones, repeated ones, optionally a hub vertex
    in every hyperedge, and vertex IDs that no hyperedge uses."""
    num_vertices = draw(st.integers(1, 10))
    edge_lists = draw(
        st.lists(st.lists(st.integers(0, num_vertices - 1), max_size=6), max_size=9)
    )
    if edge_lists:
        edge_lists += draw(st.lists(st.sampled_from(edge_lists), max_size=3))
    if draw(st.booleans()):
        edge_lists = [members + [0] for members in edge_lists]
    unused = draw(st.integers(0, 3))
    return hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices + unused)


def relabelled_copy(h, permutation):
    """``h`` with vertex ``v`` renamed ``permutation[v]``: member rows stay
    ascending (Algorithm 1's merge reads them sorted), every vertex row is
    stored descending."""
    edges = h.edges_csr
    owners = np.repeat(np.arange(h.num_edges, dtype=np.int64), h.edge_sizes())
    members = permutation[edges.indices]
    members = members[np.lexsort((members, owners))]
    edges = CSRMatrix(indptr=edges.indptr, indices=members, num_cols=edges.num_cols)
    vertices = edges.transpose_fast()
    owners = np.repeat(np.arange(vertices.num_rows, dtype=np.int64), vertices.row_degrees())
    descending = vertices.indices[np.lexsort((-vertices.indices, owners))]
    vertices = CSRMatrix(
        indptr=vertices.indptr, indices=descending, num_cols=vertices.num_cols
    )
    return Hypergraph(edges=edges, vertices=vertices)


def assert_same_graph(graph, reference):
    assert graph.edges.tobytes() == reference.edges.tobytes()
    assert graph.weights.tobytes() == reference.weights.tobytes()
    assert graph.active_vertices.tobytes() == reference.active_vertices.tobytes()


def assert_same_result(block, reference):
    for name in ("edges", "weights", "active_vertices"):
        got, want = getattr(block.graph, name), getattr(reference.graph, name)
        assert got.dtype == want.dtype == np.int64, name
        assert got.shape == want.shape, name
        assert got.flags.c_contiguous and want.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
    assert block.graph.num_hyperedges == reference.graph.num_hyperedges
    # Dataclass equality: worker_id and all four counters of every worker.
    assert block.workload.workers == reference.workload.workers


@pytest.mark.parametrize("budget", [vectorized._BLOCK_WEDGES, 7, 1])
@settings(max_examples=25, deadline=None)
@given(h=hypergraphs())
def test_block_kernel_equals_hashmap_kernel(budget, h):
    max_overlap = int(s_line_graph_hashmap(h, 1).graph.weights.max(initial=0))
    with mock.patch.object(vectorized, "_BLOCK_WEDGES", budget):
        for s in range(1, max_overlap + 2):
            for config in CONFIGS:
                assert_same_result(
                    s_line_graph_vectorized(h, s, config),
                    s_line_graph_hashmap(h, s, config),
                )


@settings(max_examples=15, deadline=None)
@given(h=hypergraphs(), data=st.data())
def test_reference_kernels_equal_block_kernel(h, data):
    permutation = np.array(
        data.draw(st.permutations(range(h.num_vertices))), dtype=np.int64
    )
    for g in (h, relabelled_copy(h, permutation)):
        max_overlap = int(s_line_graph_vectorized(g, 1).graph.weights.max(initial=0))
        s_values = range(1, max_overlap + 2)
        for s in s_values:
            block = s_line_graph_vectorized(g, s).graph
            assert_same_graph(s_line_graph_spgemm(g, s, kernel="gustavson").graph, block)
            assert_same_graph(s_line_graph_spgemm_upper(g, s).graph, block)
        for config in CONFIGS:
            ensemble, _ = s_line_graph_ensemble_hashmap(g, s_values, config)
            for s in s_values:
                block = s_line_graph_vectorized(g, s, config)
                for policy in ("dynamic", "preallocated"):
                    assert_same_result(
                        block, s_line_graph_hashmap(g, s, config, counter_policy=policy)
                    )
                assert_same_graph(s_line_graph_heuristic(g, s, config).graph, block.graph)
                assert_same_graph(ensemble.graphs[s], block.graph)


def test_relabelled_copy_stores_vertex_rows_descending(paper_example):
    permutation = np.arange(paper_example.num_vertices, dtype=np.int64)[::-1].copy()
    g = relabelled_copy(paper_example, permutation)
    rows = [g.vertices_csr.row(v).tolist() for v in range(g.num_vertices)]
    assert any(len(row) > 1 for row in rows)
    assert all(row == sorted(row, reverse=True) for row in rows)


def test_blocks_cover_every_position_once_whatever_the_budget():
    wedges = np.array([0, 5, 0, 0, 9, 1, 1, 20, 0], dtype=np.int64)
    for budget in (1, 2, 7, 10, 36, 1000):
        with mock.patch.object(vectorized, "_BLOCK_WEDGES", budget):
            blocks = list(vectorized._blocks(wedges))
        covered = np.concatenate([np.arange(wedges.size)[block] for block in blocks])
        assert covered.tolist() == list(range(wedges.size))
        for block in blocks:
            # Over budget only when a single position is.
            assert wedges[block].sum() <= budget or block.stop - block.start == 1
    assert list(vectorized._blocks(np.empty(0, dtype=np.int64))) == []


def test_zero_hyperedges():
    h = hypergraph_from_edge_lists([], num_vertices=3)
    for config in CONFIGS:
        assert_same_result(
            s_line_graph_vectorized(h, 1, config), s_line_graph_hashmap(h, 1, config)
        )


def test_every_hyperedge_below_s(paper_example):
    result = s_line_graph_vectorized(paper_example, 6)
    assert_same_result(result, s_line_graph_hashmap(paper_example, 6))
    assert result.graph.num_edges == 0
    assert result.graph.active_vertices.size == 0
    assert result.workload.workers[0].edges_processed == 0
    assert result.workload.workers[0].wedges_visited == 0


def test_paper_figure_1_ground_truth(paper_example):
    for s, expected in PAPER_EXAMPLE_SLINE_EDGES.items():
        graph = s_line_graph_vectorized(paper_example, s).graph
        assert graph.edge_set() == expected
        assert graph.weight_map() == {
            pair: PAPER_EXAMPLE_OVERLAPS[pair] for pair in expected
        }


def test_process_backend_round_trip(community_hypergraph):
    config = ParallelConfig(num_workers=2, strategy="cyclic", backend="process")
    assert_same_result(
        s_line_graph_vectorized(community_hypergraph, 2, config),
        s_line_graph_hashmap(community_hypergraph, 2, config),
    )


def test_pair_key_that_would_overflow_is_refused(paper_example):
    too_many = mock.PropertyMock(return_value=3_037_000_500)  # isqrt(2**63) + 1
    with mock.patch.object(Hypergraph, "num_edges", too_many):
        with pytest.raises(ValidationError, match="overflow"):
            s_line_graph_vectorized(paper_example, 1)


def test_working_memory_is_bounded_by_the_block_not_the_input():
    """One kernel call peaks at the output (held twice while the per-block
    pieces are concatenated) plus one block's arrays — never the 8 B × wedges
    a single-pass sort would need."""
    h = load_dataset("livejournal", scale=1.0, seed=0)
    edges_csr, vertices_csr = h.edges_csr, h.vertices_csr
    edge_wedges = np.array(
        [
            vertices_csr.row_degrees()[members].sum()
            for _, members in edges_csr.iter_rows()
        ],
        dtype=np.int64,
    )
    budget = 1 << 14
    assert edge_wedges.max() <= budget  # no hyperedge is a block of its own
    assert edge_wedges.sum() >= 16 * budget
    ids = np.arange(h.num_edges, dtype=np.int64)
    with mock.patch.object(vectorized, "_BLOCK_WEDGES", budget):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            edges, weights, counters = vectorized._vectorized_kernel(
                edges_csr.indptr,
                edges_csr.indices,
                vertices_csr.indptr,
                vertices_csr.indices,
                edge_wedges,
                1,
                ids,
                0,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert counters.wedges_visited == edge_wedges.sum()
    returned = edges.nbytes + weights.nbytes
    # Per-hyperedge int64 arrays: sizes, pruned IDs, their wedge counts and
    # the prefix sum the blocks are cut from, with one temporary in flight.
    per_hyperedge = 5 * 8 * h.num_edges
    assert peak - before <= 2 * returned + 64 * budget + per_hyperedge
    assert 8 * counters.wedges_visited > 64 * budget + per_hyperedge

"""Properties licensing the library-backed Stage 4→5 kernels.

``Graph``'s CSR is built by one ``scipy.sparse`` conversion and
``connected_components`` / ``bfs_distances`` are ``scipy.sparse.csgraph``
calls.  The references here share no code with them: a dense matrix filled
one edge at a time, and the hand-written traversals the package keeps
(``label_propagation_components``, ``union_find_components``, ``bfs_tree``).
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.slinegraph import SLineGraph
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.connected_components import (
    connected_components,
    label_propagation_components,
)
from repro.graph.graph import Graph
from repro.graph.union_find import union_find_components


@st.composite
def edge_lists(draw):
    """``(n, edges, weights)``: empty and edgeless graphs, isolated vertices,
    duplicate and reversed edges, float weights including ``0.0``."""
    n = draw(st.integers(min_value=0, max_value=16))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = []
    if n >= 2:
        pairs = draw(
            st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=40)
        )
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return n, pairs, weights


def _dense_reference(n, pairs, weights):
    """``(present, weight)`` matrices, first weight of a repeated edge winning."""
    present = np.zeros((n, n), dtype=bool)
    weight = np.zeros((n, n), dtype=np.float64)
    for (u, v), w in zip(pairs, weights):
        if not present[u, v]:
            present[u, v] = present[v, u] = True
            weight[u, v] = weight[v, u] = w
    return present, weight


def _assert_is_csr_of(graph, present, weight):
    """``graph`` stores exactly ``present``'s entries, rows sorted, typed."""
    n = present.shape[0]
    assert graph.num_vertices == n
    assert (graph.indptr.dtype, graph.indices.dtype, graph.weights.dtype) == (
        np.int64,
        np.int64,
        np.float64,
    )
    assert graph.indptr.tolist() == [0, *np.cumsum(present.sum(axis=1)).tolist()]
    for u in range(n):
        expected = np.flatnonzero(present[u])
        assert graph.neighbors(u).tolist() == expected.tolist()
        assert graph.neighbor_weights(u).tolist() == weight[u, expected].tolist()


def _graph(case):
    n, pairs, weights = case
    return Graph.from_edge_list(
        n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2), np.asarray(weights)
    )


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(0, [], []))
@example(case=(4, [], []))
@example(case=(3, [(2, 0), (0, 2), (2, 0)], [0.0, 5.0, 7.0]))
def test_from_edge_list_equals_a_dense_reference(case):
    _assert_is_csr_of(_graph(case), *_dense_reference(*case))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), data=st.data())
def test_subgraph_equals_the_dense_selection(case, data):
    n = case[0]
    keep = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n) if n else st.just([]))
    present, weight = _dense_reference(*case)
    sub, kept = _graph(case).subgraph(keep)
    assert kept.tolist() == sorted(set(keep))
    _assert_is_csr_of(sub, present[kept][:, kept], weight[kept][:, kept])


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), s=st.integers(1, 3), data=st.data())
@example(case=(0, [], []), s=1, data=None)
@example(case=(6, [(5, 1)], [1.0]), s=2, data=None)
def test_squeezed_line_graph_builds_the_edge_list_graph(case, s, data):
    n, pairs, _ = case
    overlaps = np.arange(len(pairs), dtype=np.int64) % 4 + s
    active = None
    if data is not None and n and data.draw(st.booleans()):
        active = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    line_graph = SLineGraph(
        s=s,
        edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        weights=overlaps,
        num_hyperedges=n,
        active_vertices=active,
    )
    squeezed, _ = line_graph.squeeze()
    built = squeezed.to_graph(squeezed=False)
    reference = Graph.from_edge_list(
        squeezed.num_hyperedges, squeezed.edges, squeezed.weights
    )
    for name in ("indptr", "indices", "weights"):
        assert getattr(built, name).dtype == getattr(reference, name).dtype
        assert np.array_equal(getattr(built, name), getattr(reference, name))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
@example(case=(0, [], []))
@example(case=(5, [(4, 3), (1, 0)], [1.0, 1.0]))
def test_components_match_the_hand_written_kernels_in_discovery_order(case):
    graph = _graph(case)
    labels = connected_components(graph)
    assert labels.dtype == np.int64 and labels.shape == (graph.num_vertices,)
    same = labels[:, None] == labels[None, :]
    for reference in (label_propagation_components, union_find_components):
        other = reference(graph)
        assert np.array_equal(same, other[:, None] == other[None, :])
    # Label k is the component with the k-th smallest minimum vertex: each
    # label first appears, scanning vertices upwards, right after k - 1.
    _, first_seen = np.unique(labels, return_index=True)
    assert labels[np.sort(first_seen)].tolist() == list(range(first_seen.size))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
@example(case=(1, [], []))
def test_bfs_distances_equal_the_kept_python_traversal(case):
    graph = _graph(case)
    for source in range(graph.num_vertices):
        dist = bfs_distances(graph, source)
        assert dist.dtype == np.int64
        assert np.array_equal(dist, bfs_tree(graph, source)[0])
        reachable = connected_components(graph) == connected_components(graph)[source]
        assert np.array_equal(dist == -1, ~reachable)
    for source in (-1, graph.num_vertices):
        with pytest.raises(IndexError):
            bfs_distances(graph, source)

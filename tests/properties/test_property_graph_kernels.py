"""Properties licensing the array-built Stage 4→5 kernels.

``Graph``'s CSR pattern is built by one ``scipy.sparse`` conversion;
components are one ``scipy.sparse.csgraph`` call; every BFS — distances,
eccentricity, closeness and betweenness's forward pass — is the one level
loop ``bfs.levels`` over blocks of sources; LPCC is a vectorised min-label
propagation.  The references here share no code with them: a dense matrix
filled one edge at a time, and networkx.
"""
import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms.centrality.betweenness import (
    _single_source_shortest_path_basic as nx_forward_pass,
)
from scipy.sparse import csgraph

from repro.core.slinegraph import SLineGraph
from repro.graph.betweenness import betweenness_centrality
from repro.graph.bfs import BLOCK, all_sources, bfs_distances, levels
from repro.graph.connected_components import (
    by_smallest_vertex,
    connected_components,
    label_propagation_components,
)
from repro.graph.distance import closeness_centrality, diameter, eccentricity
from repro.graph.graph import Graph


@st.composite
def edge_lists(draw):
    """``(n, edges)``: empty and edgeless graphs, isolated vertices,
    duplicate and reversed edges."""
    n = draw(st.integers(min_value=0, max_value=16))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = []
    if n >= 2:
        pairs = draw(
            st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=40)
        )
    return n, pairs


def _dense_reference(n, pairs):
    """The adjacency pattern, filled one edge at a time."""
    present = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        present[u, v] = present[v, u] = True
    return present


def _assert_is_csr_of(graph, present):
    """``graph`` stores exactly ``present``'s entries, rows sorted, typed."""
    n = present.shape[0]
    assert graph.num_vertices == n
    assert (graph.indptr.dtype, graph.indices.dtype) == (np.int64, np.int32)
    assert graph.indptr.tolist() == [0, *np.cumsum(present.sum(axis=1)).tolist()]
    for u in range(n):
        row = slice(graph.indptr[u], graph.indptr[u + 1])
        assert graph.indices[row].tolist() == np.flatnonzero(present[u]).tolist()


def _graph(case):
    n, pairs = case
    return Graph.from_edge_list(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def _nx_graph(case):
    n, pairs = case
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(pairs)
    return reference


def _several_blocks_case():
    """Two full source blocks and a partial third; a few components and
    isolated vertices, so blocks see unreachable columns too."""
    rng = np.random.default_rng(7)
    n = 2 * BLOCK + 188
    pairs = rng.integers(0, n - 20, size=(3 * n, 2))
    return n, pairs[pairs[:, 0] != pairs[:, 1]].tolist()


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(0, []))
@example(case=(4, []))
@example(case=(3, [(2, 0), (0, 2), (2, 0)]))
def test_from_edge_list_equals_a_dense_reference(case):
    _assert_is_csr_of(_graph(case), _dense_reference(*case))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), data=st.data())
def test_subgraph_equals_the_dense_selection(case, data):
    n = case[0]
    keep = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n) if n else st.just([]))
    present = _dense_reference(*case)
    sub, kept = _graph(case).subgraph(keep)
    assert kept.tolist() == sorted(set(keep))
    _assert_is_csr_of(sub, present[kept][:, kept])


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), s=st.integers(1, 3), data=st.data())
@example(case=(0, []), s=1, data=None)
@example(case=(6, [(5, 1)]), s=2, data=None)
def test_squeezed_line_graph_builds_the_edge_list_graph(case, s, data):
    n, pairs = case
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
    # Stage 4 keeps the pattern only: the edge-list graph.
    reference = Graph.from_edge_list(squeezed.num_hyperedges, squeezed.edges)
    for name in ("indptr", "indices"):
        assert getattr(built, name).dtype == getattr(reference, name).dtype
        assert np.array_equal(getattr(built, name), getattr(reference, name))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
@example(case=(0, []))
@example(case=(5, [(4, 3), (1, 0)]))
def test_components_match_networkx_in_discovery_order(case):
    graph = _graph(case)
    labels = connected_components(graph)
    assert labels.dtype == np.int64 and labels.shape == (graph.num_vertices,)
    partition = {}
    for v, label in enumerate(labels.tolist()):
        partition.setdefault(label, set()).add(v)
    assert sorted(map(sorted, partition.values())) == sorted(
        map(sorted, nx.connected_components(_nx_graph(case)))
    )
    # Label k is the component with the k-th smallest minimum vertex: each
    # label first appears, scanning vertices upwards, right after k - 1.
    _, first_seen = np.unique(labels, return_index=True)
    assert labels[np.sort(first_seen)].tolist() == list(range(first_seen.size))
    assert label_propagation_components(graph).tolist() == labels.tolist()


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(0, []))
@example(case=(4, []))
@example(case=(6, [(5, 4), (3, 0), (4, 3)]))
def test_components_equal_csgraph_undirected_mode_byte_for_byte(case):
    """Strong components of the symmetric adjacency, renumbered, are the
    undirected mode's labels: same values, same dtype, same bytes."""
    graph = _graph(case)
    _, expected = csgraph.connected_components(graph.adjacency_matrix(), directed=False)
    labels = connected_components(graph)
    assert labels.dtype == np.int64
    assert labels.tobytes() == expected.astype(np.int64).tobytes()


@given(labels=st.lists(st.integers(min_value=0, max_value=30), max_size=40))
def test_by_smallest_vertex_numbers_labels_by_first_appearance(labels):
    first_appearance = {}
    expected = [first_appearance.setdefault(label, len(first_appearance)) for label in labels]
    renumbered = by_smallest_vertex(np.array(labels, dtype=np.int64))
    assert renumbered.dtype == np.int64
    assert renumbered.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
@example(case=(1, []))
def test_bfs_distances_equal_networkx(case):
    graph, reference = _graph(case), _nx_graph(case)
    for source in range(graph.num_vertices):
        dist = bfs_distances(graph, source)
        assert dist.dtype == np.int64
        hops = nx.single_source_shortest_path_length(reference, source)
        assert dist.tolist() == [hops.get(v, -1) for v in range(graph.num_vertices)]
    for source in (-1, graph.num_vertices):
        with pytest.raises(IndexError):
            bfs_distances(graph, source)


def _assert_betweenness_equals_networkx(graph, reference):
    """Within the relative 1e-12 contract; exact zeros stay exact."""
    between = nx.betweenness_centrality(reference, normalized=True)
    np.testing.assert_allclose(
        betweenness_centrality(graph),
        [between[v] for v in range(graph.num_vertices)],
        rtol=1e-12,
        atol=0,
    )


def _assert_eccentricity_equals_networkx(graph, reference):
    """Exact, within each component; the diameter is the largest."""
    expected = [
        max(nx.single_source_shortest_path_length(reference, v).values())
        for v in range(graph.num_vertices)
    ]
    assert eccentricity(graph).tolist() == expected
    assert diameter(graph) == max(expected, default=0)


def _assert_closeness_equals_networkx(graph, reference):
    """Bit for bit: the same integer counts and sums, the same divisions."""
    closeness = nx.closeness_centrality(reference)
    expected = [closeness[v] for v in range(graph.num_vertices)]
    assert closeness_centrality(graph).tolist() == expected


BLOCK_KERNEL_CHECKS = {
    "betweenness": _assert_betweenness_equals_networkx,
    "eccentricity": _assert_eccentricity_equals_networkx,
    "closeness": _assert_closeness_equals_networkx,
}


@pytest.mark.parametrize("kernel", sorted(BLOCK_KERNEL_CHECKS))
@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
@example(case=(0, []))
@example(case=(2, [(0, 1)]))
@example(case=(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
def test_block_kernels_equal_networkx(kernel, case):
    BLOCK_KERNEL_CHECKS[kernel](_graph(case), _nx_graph(case))


@pytest.mark.parametrize("kernel", sorted(BLOCK_KERNEL_CHECKS))
def test_block_kernels_equal_networkx_across_several_blocks(kernel):
    case = _several_blocks_case()
    graph, reference = _graph(case), _nx_graph(case)
    assert graph.num_vertices == 700 and nx.number_connected_components(reference) > 20
    BLOCK_KERNEL_CHECKS[kernel](graph, reference)


def _assert_levels_equal_networkx(reference, sources, dist, sigma, depth):
    """Column ``j``: networkx's hop counts from ``sources[j]`` (−1 where
    unreachable) and its shortest-path counts, both exact."""
    n = reference.number_of_nodes()
    assert (dist.dtype, sigma.dtype) == (np.int32, np.float64)
    assert dist.shape == sigma.shape == (n, len(sources))
    deepest = 0
    for j, source in enumerate(sources.tolist()):
        _, _, paths, hops = nx_forward_pass(reference, source)
        assert dist[:, j].tolist() == [hops.get(v, -1) for v in range(n)]
        assert sigma[:, j].tolist() == [paths[v] for v in range(n)]
        deepest = max(deepest, *hops.values())
    assert depth == deepest


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), data=st.data())
@example(case=(1, []), data=None)
@example(case=(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]), data=None)
def test_levels_equal_networkx_hops_and_path_counts(case, data):
    """The one level loop, over source blocks smaller than the graph: two or
    more blocks whenever there are two vertices."""
    graph, reference = _graph(case), _nx_graph(case)
    n = graph.num_vertices
    block = 2 if data is None else data.draw(st.integers(1, max(n - 1, 1)))
    adjacency = graph.adjacency_matrix()
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        _assert_levels_equal_networkx(reference, sources, *levels(adjacency, sources))


def test_all_sources_equal_networkx_across_several_blocks():
    case = _several_blocks_case()
    graph, reference = _graph(case), _nx_graph(case)
    blocks = list(all_sources(graph.adjacency_matrix()))
    assert [sources.size for sources, *_ in blocks] == [BLOCK, BLOCK, 188]
    for sources, dist, sigma, depth in blocks:
        _assert_levels_equal_networkx(reference, sources, dist, sigma, depth)

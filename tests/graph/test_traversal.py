"""Unit tests for BFS, connected components and distance measures."""

import numpy as np
import pytest

from repro.graph.bfs import BLOCK, bfs_distances, hops, source_blocks
from repro.graph.connected_components import (
    component_sizes,
    connected_components,
    label_propagation_components,
)
from repro.graph.distance import closeness_centrality, diameter, eccentricity
from repro.graph.graph import Graph


def path_graph(n):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return Graph.from_edge_list(n, edges)


def two_components():
    """Path 0-1-2 and edge 3-4, vertex 5 isolated."""
    return Graph.from_edge_list(6, np.array([[0, 1], [1, 2], [3, 4]]))


class TestBFS:
    def test_distances_on_path(self):
        g = path_graph(5)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4]
        assert bfs_distances(g, 2).tolist() == [2, 1, 0, 1, 2]

    def test_unreachable_is_minus_one(self):
        g = two_components()
        dist = bfs_distances(g, 0)
        assert dist[3] == -1 and dist[5] == -1

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            bfs_distances(path_graph(3), 7)

    def test_a_block_of_sources_is_one_row_each(self):
        g = two_components()
        block = hops(g.adjacency_matrix(weighted=False), [0, 4, 5])
        assert block.dtype == np.int64
        assert block.tolist() == [bfs_distances(g, v).tolist() for v in (0, 4, 5)]


    def test_source_blocks_cover_every_vertex_in_order(self):
        assert list(source_blocks(0)) == []
        blocks = list(source_blocks(2 * BLOCK + 3))
        assert [b.size for b in blocks] == [BLOCK, BLOCK, 3]
        assert np.concatenate(blocks).tolist() == list(range(2 * BLOCK + 3))


class TestConnectedComponents:
    def test_labels_and_sizes(self):
        g = two_components()
        labels = connected_components(g)
        assert labels.tolist() == [0, 0, 0, 1, 1, 2]
        assert component_sizes(labels).tolist() == [3, 2, 1]

    def test_label_propagation_matches_bfs(self):
        g = two_components()
        assert label_propagation_components(g).tolist() == connected_components(g).tolist()

    def test_label_propagation_on_random_graph(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 30, size=(60, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = Graph.from_edge_list(30, edges)
        a = connected_components(g)
        b = label_propagation_components(g)
        # The partitions must be identical (labels may differ only by naming).
        assert (a[:, None] == a[None, :]).tolist() == (b[:, None] == b[None, :]).tolist()

    def test_empty_graph(self):
        g = Graph.from_edge_list(0, np.empty((0, 2), dtype=np.int64))
        assert connected_components(g).size == 0
        assert label_propagation_components(g).size == 0


class TestDistances:
    def test_eccentricity_and_diameter(self):
        g = path_graph(5)
        assert eccentricity(g).tolist() == [4, 3, 2, 3, 4]
        assert diameter(g) == 4

    def test_eccentricity_per_component(self):
        g = two_components()
        ecc = eccentricity(g)
        assert ecc[5] == 0
        assert ecc[3] == 1

    def test_closeness_matches_networkx(self):
        import networkx as nx

        g = two_components()
        ours = closeness_centrality(g)
        nx_graph = nx.from_edgelist([(0, 1), (1, 2), (3, 4)])
        nx_graph.add_node(5)  # keep the isolated vertex so n matches
        theirs = nx.closeness_centrality(nx_graph)
        for v, expected in theirs.items():
            assert ours[v] == pytest.approx(expected)

"""Unit tests for the CSR Graph type."""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.connected_components import connected_components
from repro.graph.distance import closeness_centrality, eccentricity
from repro.graph.graph import Graph
from repro.utils.validation import ValidationError


def triangle_plus_isolated():
    """Triangle 0-1-2 plus isolated vertex 3."""
    return Graph.from_edge_list(
        4, np.array([[0, 1], [1, 2], [0, 2]]), np.array([1.0, 2.0, 3.0])
    )


class TestConstruction:
    def test_from_edge_list(self):
        g = triangle_plus_isolated()
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.degrees().tolist() == [2, 2, 2, 0]
        assert g.indices[g.indptr[1] : g.indptr[2]].tolist() == [0, 2]

    def test_duplicate_edges_collapsed(self):
        g = Graph.from_edge_list(3, np.array([[0, 1], [1, 0]]))
        assert g.num_edges == 1

    def test_empty_graph(self):
        g = Graph.from_edge_list(5, np.empty((0, 2), dtype=np.int64))
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0] * 5

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_edge_list(3, np.array([[1, 1]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_edge_list(2, np.array([[0, 5]]))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValidationError):
            Graph.from_edge_list(3, np.array([[0, 1]]), np.array([1.0, 2.0]))

    def test_from_scipy_drops_diagonal(self):
        adj = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 0.0]]))
        g = Graph.from_scipy(adj)
        assert g.num_edges == 1
        assert g.weights[g.indptr[0] : g.indptr[1]].tolist() == [2.0]

    def test_from_scipy_rejects_non_square(self):
        with pytest.raises(ValidationError):
            Graph.from_scipy(sparse.csr_matrix((2, 3)))


class TestAccess:
    def test_edges_iteration(self):
        g = triangle_plus_isolated()
        edges = {(u, v): w for u, v, w in g.edges()}
        assert edges == {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0}

    def test_adjacency_matrix_symmetric(self):
        g = triangle_plus_isolated()
        A = g.adjacency_matrix().toarray()
        assert np.array_equal(A, A.T)
        assert A[0, 2] == 3.0
        B = g.adjacency_matrix(weighted=False).toarray()
        assert B[0, 2] == 1.0


class TestTraversalView:
    def test_each_metric_call_builds_one_unweighted_view(self, monkeypatch):
        built = []
        original = Graph.adjacency_matrix

        def counting(self, weighted=True):
            built.append(weighted)
            return original(self, weighted)

        monkeypatch.setattr(Graph, "adjacency_matrix", counting)
        g = triangle_plus_isolated()
        assert connected_components(g).tolist() == [0, 0, 0, 1]
        assert closeness_centrality(g).shape == (4,)
        assert eccentricity(g).tolist() == [1, 1, 1, 0]
        # One view per call, shared by its sources, not one per source.
        assert built == [False, False, False]


class TestSubgraph:
    def test_induced_subgraph(self):
        g = triangle_plus_isolated()
        sub, kept = g.subgraph([0, 2, 3])
        assert kept.tolist() == [0, 2, 3]
        assert sub.num_vertices == 3
        assert sub.num_edges == 1  # only edge 0-2 survives

    def test_subgraph_out_of_range(self):
        g = triangle_plus_isolated()
        with pytest.raises(ValidationError):
            g.subgraph([99])

    def test_metadata_independent(self):
        g = triangle_plus_isolated()
        g.metadata["s"] = 7
        assert g.metadata["s"] == 7

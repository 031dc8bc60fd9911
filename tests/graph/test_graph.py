"""Unit tests for the CSR Graph type."""

import numpy as np
import pytest

from repro.graph.connected_components import connected_components
from repro.graph.distance import closeness_centrality, eccentricity
from repro.graph.graph import Graph
from repro.utils.validation import ValidationError


def triangle_plus_isolated():
    """Triangle 0-1-2 plus isolated vertex 3."""
    return Graph.from_edge_list(4, np.array([[0, 1], [1, 2], [0, 2]]))


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


class TestAccess:
    def test_adjacency_matrix_is_symmetric_float_ones(self):
        A = triangle_plus_isolated().adjacency_matrix()
        assert A.dtype == np.float64
        assert A.toarray().tolist() == [
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]


class TestTraversalView:
    def test_each_metric_call_builds_one_view(self, monkeypatch):
        built = []
        original = Graph.adjacency_matrix

        def counting(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(Graph, "adjacency_matrix", counting)
        g = triangle_plus_isolated()
        assert connected_components(g).tolist() == [0, 0, 0, 1]
        assert closeness_centrality(g).shape == (4,)
        assert eccentricity(g).tolist() == [1, 1, 1, 0]
        # One view per call, shared by its sources, not one per source.
        assert built == [g, g, g]


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


class TestPattern:
    def path(self):
        return Graph.from_edge_list(4, np.array([[0, 1], [1, 2], [2, 3]]))

    def test_the_arrays_are_typed(self):
        g = self.path()
        assert (g.indptr.dtype, g.indices.dtype) == (np.int64, np.int32)

    def test_subgraph_keeps_the_form(self):
        sub, _ = self.path().subgraph([1, 2, 3])
        assert (sub.indptr.dtype, sub.indices.dtype) == (np.int64, np.int32)
        assert sub.indptr.tolist() == [0, 1, 3, 4]
        assert sub.indices.tolist() == [1, 0, 2, 1]

    def test_int32_columns_are_adopted_without_a_copy(self):
        indices = np.array([1, 0], dtype=np.int32)
        g = Graph(2, np.array([0, 1, 2]), indices)
        assert g.indices is indices

    def test_ids_beyond_int32_are_refused_not_wrapped(self):
        with pytest.raises(ValidationError, match="out of range"):
            Graph(2, np.array([0, 1, 1]), np.array([2**32 + 1], dtype=np.int64))
        # Checked before ``indptr`` is looked at: nothing of that size is built.
        with pytest.raises(ValidationError, match="at most"):
            Graph(2**31, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))

"""Unit tests for Graph <-> networkx conversion."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.conversion import from_networkx, to_networkx
from repro.graph.graph import Graph
from repro.utils.validation import ValidationError


class TestConversion:
    def test_roundtrip(self):
        g = Graph.from_edge_list(4, np.array([[0, 1], [1, 2]]), np.array([2.0, 5.0]))
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 4
        assert nxg[1][2]["weight"] == 5.0
        back = from_networkx(nxg)
        assert back.num_edges == g.num_edges
        assert back.num_vertices == g.num_vertices
        assert dict((min(u, v), max(u, v)) for u, v, _ in back.edges()) == dict(
            (min(u, v), max(u, v)) for u, v, _ in g.edges()
        )

    def test_from_networkx_default_weight(self):
        nxg = nx.path_graph(3)
        g = from_networkx(nxg)
        assert g.weights[g.indptr[0] : g.indptr[1]].tolist() == [1.0]

    def test_from_networkx_requires_contiguous_ints(self):
        nxg = nx.Graph()
        nxg.add_edge("a", "b")
        with pytest.raises(ValidationError):
            from_networkx(nxg)

    def test_from_networkx_skips_self_loops(self):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(2))
        nxg.add_edge(0, 0)
        nxg.add_edge(0, 1)
        g = from_networkx(nxg)
        assert g.num_edges == 1

"""Unit tests for the Boolean filtration helpers."""
import pytest

from repro.core.filtration import line_graph_from_filtration

from tests.conftest import PAPER_EXAMPLE_SLINE_EDGES, brute_force_s_line_edges


class TestLineGraphFromFiltration:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_paper_example(self, paper_example, s):
        graph = line_graph_from_filtration(paper_example, s)
        assert graph.edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]

    def test_weights_match_overlaps(self, community_hypergraph):
        graph = line_graph_from_filtration(community_hypergraph, 2)
        for (i, j), w in graph.weight_map().items():
            assert w == community_hypergraph.inc(i, j)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_matches_brute_force_intersections(self, small_random_hypergraph, s):
        graph = line_graph_from_filtration(small_random_hypergraph, s)
        assert graph.weight_map() == brute_force_s_line_edges(small_random_hypergraph, s)

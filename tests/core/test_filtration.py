"""Unit tests for the Boolean filtration helpers."""
import numpy as np
import pytest

from repro.core.filtration import filter_weighted_arrays, line_graph_from_filtration
from repro.utils.validation import ValidationError

from tests.conftest import (
    PAPER_EXAMPLE_OVERLAPS,
    PAPER_EXAMPLE_SLINE_EDGES,
    brute_force_s_line_edges,
)


class TestFilterWeightedArrays:
    def test_basic_filtering(self):
        graph = filter_weighted_arrays(
            np.array([[0, 1], [1, 2], [2, 3]]), np.array([5, 1, 3]), s=3, num_hyperedges=5
        )
        assert graph.edge_set() == {(0, 1), (2, 3)}
        assert graph.weight_map() == {(0, 1): 5, (2, 3): 3}

    def test_empty_result(self):
        graph = filter_weighted_arrays(np.array([[0, 1]]), np.array([1]), s=2, num_hyperedges=3)
        assert graph.num_edges == 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_paper_example_overlaps(self, s):
        pairs = np.array(list(PAPER_EXAMPLE_OVERLAPS), dtype=np.int64)
        weights = np.array(list(PAPER_EXAMPLE_OVERLAPS.values()), dtype=np.int64)
        graph = filter_weighted_arrays(pairs, weights, s=s, num_hyperedges=4)
        assert graph.edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]

    def test_invalid_s(self):
        with pytest.raises(ValidationError):
            filter_weighted_arrays(np.array([[0, 1]]), np.array([1]), s=0, num_hyperedges=2)

    def test_weights_must_align_with_pairs(self):
        with pytest.raises(ValueError, match="weights length"):
            filter_weighted_arrays(np.array([[0, 1], [1, 2]]), np.array([1]), s=1, num_hyperedges=3)


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

"""Unit tests for s-distance, s-diameter and spectral s-measures."""

import pytest

from repro.apps.authors import coauthorship_connectivity
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.smetrics.distance import s_diameter, s_distance
from repro.smetrics.spectral import s_normalized_algebraic_connectivity
from repro.utils.validation import ValidationError


class TestSDistance:
    def test_paper_example_distances(self, paper_example):
        # s = 1 line graph: triangle {0,1,2} with pendant 3 attached to 2.
        assert s_distance(paper_example, 0, 1, 1) == 1
        assert s_distance(paper_example, 0, 3, 1) == 2
        assert s_distance(paper_example, 2, 2, 1) == 0

    def test_disconnected_pair_returns_minus_one(self):
        h = hypergraph_from_edge_lists([[0, 1], [1, 2], [5, 6], [6, 7]])
        assert s_distance(h, 0, 2, 1) == -1

    def test_partnerless_member_of_E_s_is_at_minus_one(self, paper_example):
        # Hyperedge 3 ({e, f}) is in E_2 but shares 2 vertices with nothing.
        assert s_distance(paper_example, 0, 3, 2) == -1
        assert s_distance(paper_example, 3, 0, 2) == -1

    def test_requires_both_edges_in_Es(self, paper_example):
        with pytest.raises(ValidationError):
            s_distance(paper_example, 0, 3, 3)  # edge 3 has size 2 < 3

    def test_s_diameter(self, paper_example):
        assert s_diameter(paper_example, 1) == 2
        assert s_diameter(paper_example, 2) == 1
        assert s_diameter(paper_example, 5) == 0


class TestSpectral:
    def test_triangle_connectivity(self, paper_example):
        # s = 2 line graph is a triangle (K3): normalized connectivity = 1.5.
        assert s_normalized_algebraic_connectivity(paper_example, 2) == pytest.approx(1.5)

    def test_trivial_line_graph_gives_zero(self, paper_example):
        assert s_normalized_algebraic_connectivity(paper_example, 5) == 0.0

    def test_largest_component_only(self):
        # s = 1: a K3 component {0, 1, 2} and a K2 component {3, 4}; only
        # the larger counts, and K3's normalized connectivity is 1.5.
        h = hypergraph_from_edge_lists([[0, 1], [1, 2], [0, 2], [5, 6], [6, 7]])
        assert s_normalized_algebraic_connectivity(h, 1) == pytest.approx(1.5)

    def test_sweep_matches_per_s_calls(self, paper_example):
        sweep = coauthorship_connectivity(paper_example, s_values=[1, 2, 3])
        for s, value in sweep.connectivity.items():
            assert value == pytest.approx(
                s_normalized_algebraic_connectivity(paper_example, s)
            )

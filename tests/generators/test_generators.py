"""Unit tests for the generic hypergraph generators."""

import numpy as np
import pytest

from repro.generators.community import (
    add_overlap_core,
    planted_community_hypergraph,
    planted_overlap_core,
)
from repro.generators.random import (
    chung_lu_hypergraph,
    power_law_weights,
    random_hypergraph,
    zipf_edge_sizes,
)
from repro.utils.validation import ValidationError


class TestPowerLawWeights:
    def test_bounds_and_size(self):
        w = power_law_weights(1000, exponent=2.5, min_weight=2.0, max_weight=50.0, rng=0)
        assert w.size == 1000
        assert w.min() >= 2.0
        assert w.max() <= 50.0

    def test_skew_increases_with_smaller_exponent(self):
        heavy = power_law_weights(5000, exponent=1.5, max_weight=1e6, rng=1)
        light = power_law_weights(5000, exponent=3.5, max_weight=1e6, rng=1)
        assert heavy.max() / heavy.mean() > light.max() / light.mean()

    def test_invalid_exponent(self):
        with pytest.raises(ValidationError):
            power_law_weights(10, exponent=1.0)

    def test_deterministic_with_seed(self):
        assert np.array_equal(power_law_weights(50, rng=7), power_law_weights(50, rng=7))


class TestZipfEdgeSizes:
    def test_range_and_mean(self):
        sizes = zipf_edge_sizes(2000, mean_size=6.0, max_size=40, rng=0)
        assert sizes.min() >= 1
        assert sizes.max() <= 40
        assert 3.0 < sizes.mean() < 9.0

    def test_skewed_distribution(self):
        sizes = zipf_edge_sizes(2000, mean_size=5.0, max_size=100, exponent=1.8, rng=0)
        assert np.median(sizes) < sizes.mean()


class TestRandomHypergraph:
    def test_shape_and_sizes(self):
        h = random_hypergraph(20, 15, edge_sizes=4, seed=0)
        assert h.num_vertices == 20
        assert h.num_edges == 15
        assert all(h.edge_size(i) == 4 for i in range(15))

    def test_per_edge_sizes(self):
        h = random_hypergraph(10, 3, edge_sizes=[1, 2, 3], seed=0)
        assert h.edge_sizes().tolist() == [1, 2, 3]

    def test_sizes_capped_at_num_vertices(self):
        h = random_hypergraph(4, 2, edge_sizes=10, seed=0)
        assert h.edge_sizes().max() == 4

    def test_size_length_mismatch(self):
        with pytest.raises(ValidationError):
            random_hypergraph(10, 3, edge_sizes=[1, 2], seed=0)

    def test_deterministic(self):
        a = random_hypergraph(30, 20, edge_sizes=3, seed=5)
        b = random_hypergraph(30, 20, edge_sizes=3, seed=5)
        assert a == b


class TestChungLu:
    def test_heavy_vertices_get_higher_degrees(self):
        weights = np.ones(200)
        weights[:5] = 200.0
        sizes = np.full(300, 5)
        h = chung_lu_hypergraph(weights, sizes, seed=0)
        degrees = h.vertex_degrees()
        assert degrees[:5].mean() > 5 * degrees[5:].mean()

    def test_validation(self):
        with pytest.raises(ValidationError):
            chung_lu_hypergraph([], [3])
        with pytest.raises(ValidationError):
            chung_lu_hypergraph([1.0, -1.0], [2])
        with pytest.raises(ValidationError):
            chung_lu_hypergraph([1.0, 1.0], [0])


class TestCommunityGenerators:
    def test_planted_community_shape(self):
        h = planted_community_hypergraph(100, 60, 5, seed=0)
        assert h.num_vertices == 100
        assert h.num_edges == 60

    def test_within_probability_validation(self):
        with pytest.raises(ValidationError):
            planted_community_hypergraph(10, 5, 2, within_probability=1.5)

    def test_planted_overlap_core_guarantees_overlap(self):
        lists = planted_overlap_core(6, core_size=5, num_vertices=50, seed=0)
        assert len(lists) == 6
        common = set(lists[0])
        for members in lists[1:]:
            common &= set(members)
        assert len(common) >= 5

    def test_core_size_validation(self):
        with pytest.raises(ValidationError):
            planted_overlap_core(3, core_size=10, num_vertices=5)

    def test_explicit_core_vertices(self):
        lists = planted_overlap_core(
            3, core_size=3, num_vertices=20, core_vertices=[1, 2, 3], seed=0
        )
        for members in lists:
            assert {1, 2, 3} <= set(members)

    def test_add_overlap_core_appends_edges(self, community_hypergraph):
        enriched = add_overlap_core(community_hypergraph, 5, core_size=6, seed=0)
        assert enriched.num_edges == community_hypergraph.num_edges + 5
        assert enriched.num_vertices == community_hypergraph.num_vertices
        # The appended edges pairwise overlap in at least 6 vertices.
        new_ids = range(community_hypergraph.num_edges, enriched.num_edges)
        for i in new_ids:
            for j in new_ids:
                if i < j:
                    assert enriched.inc(i, j) >= 6

"""Tests for the four application workflows (Section V and Table II of the paper).

Each test checks the *qualitative finding* the paper reports, on the
corresponding surrogate dataset.
"""

import pytest

from repro.apps.actors import find_collaborations
from repro.apps.authors import coauthorship_connectivity
from repro.apps.diseases import rank_diseases
from repro.apps.genes import identify_important_genes
from repro.generators.datasets import (
    IMDB_GROUPS,
    IMPORTANT_GENES,
    TOP_DISEASES,
    condmat_surrogate,
    disgenet_surrogate,
    imdb_surrogate,
    virology_surrogate,
)


@pytest.fixture(scope="module")
def small_virology():
    return virology_surrogate(num_genes=250, seed=0)


@pytest.fixture(scope="module")
def default_virology_genes():
    return identify_important_genes(virology_surrogate(seed=0), s_values=(1, 3, 5))


@pytest.fixture(scope="module")
def small_condmat():
    return condmat_surrogate(num_papers=400, seed=0)


@pytest.fixture(scope="module")
def small_imdb():
    return imdb_surrogate(num_background_actors=80, seed=0)


@pytest.fixture(scope="module")
def small_disgenet():
    return disgenet_surrogate(num_genes=400, num_core_genes=120, seed=0)


class TestGeneImportance:
    def test_important_genes_identified_at_s5(self, small_virology):
        result = identify_important_genes(small_virology, s_values=(1, 3, 5))
        assert set(result.top_gene_names(5, 6)) == set(IMPORTANT_GENES)

    def test_ifit1_usp18_top_two(self, small_virology):
        result = identify_important_genes(small_virology, s_values=(5,))
        assert set(result.top_gene_names(5, 2)) == {"IFIT1", "USP18"}

    def test_line_graph_shrinks_with_s(self, small_virology):
        result = identify_important_genes(small_virology, s_values=(1, 3, 5))
        sizes = result.line_graph_sizes
        assert sizes[1] > sizes[3] > sizes[5] > 0

    def test_centrality_min_s_skips_hairball(self, small_virology):
        result = identify_important_genes(
            small_virology, s_values=(1, 5), centrality_min_s=2
        )
        assert result.top_genes[1] == []
        assert result.top_genes[5]

    def test_components_contain_hub_genes(self, small_virology):
        result = identify_important_genes(small_virology, s_values=(5,))
        members = {g for comp in result.components[5] for g in comp}
        assert set(IMPORTANT_GENES) <= members

    # The ranking is by s-betweenness score, so a change in floating-point
    # summation order could reorder near-equal genes: the order is pinned.
    @pytest.mark.parametrize(
        "s, expected",
        [
            (3, ["IFIT1", "ATF3", "USP18", "ISG15", "IL6", "RSAD2"]),
            (5, ["IFIT1", "USP18", "ATF3", "ISG15", "IL6", "RSAD2"]),
        ],
    )
    def test_default_surrogate_top_gene_order(self, default_virology_genes, s, expected):
        assert default_virology_genes.top_gene_names(s, 6) == expected


class TestCoauthorship:
    def test_connectivity_dips_then_rises(self, small_condmat):
        result = coauthorship_connectivity(small_condmat, s_values=range(1, 17))
        # Decreasing from s = 4 to s = 12 (the paper reports 3..12).
        for s in range(5, 13):
            assert result.connectivity[s] <= result.connectivity[s - 1] + 1e-9
        # Sharp rise at s = 13 (the prolific collective becomes the largest component).
        assert result.rises_at() == 13
        assert result.connectivity[13] > 5 * result.connectivity[12]

    def test_nontrivial_up_to_s16(self, small_condmat):
        result = coauthorship_connectivity(small_condmat, s_values=range(1, 17))
        assert result.max_nontrivial_s() == 16


class TestActorCollaborations:
    def test_recovers_planted_groups(self, small_imdb):
        result = find_collaborations(small_imdb, s=100)
        found = {frozenset(group) for group in result.components}
        expected = {frozenset(group) for group in IMDB_GROUPS}
        assert expected <= found

    def test_adoor_bhasi_is_most_central(self, small_imdb):
        result = find_collaborations(small_imdb, s=100)
        assert result.most_central_actor() == "Adoor Bhasi"
        # The star partners have zero betweenness, so only Adoor (and possibly
        # the centres of other groups) appears among the non-zero scores.
        assert "Bahadur" not in result.central_actors

    def test_default_surrogate_central_actor_order(self):
        central = find_collaborations(seed=0).central_actors
        assert list(central) == ["Adoor Bhasi"]
        assert central["Adoor Bhasi"] == pytest.approx(2 / 15, rel=1e-12)

    def test_timing_recorded(self, small_imdb):
        result = find_collaborations(small_imdb, s=100)
        assert result.times.get("s_line_graph") > 0.0
        assert result.line_graph_edges >= 7  # 4 star edges + 3 pair edges


class TestDiseaseRanking:
    def test_top5_stable_across_s(self, small_disgenet):
        result = rank_diseases(small_disgenet, s_values=(1, 10, 100), top_k=5)
        top_at_1 = [name for name, _, _ in result.top_ranked[1]]
        assert set(top_at_1) == set(TOP_DISEASES)
        assert result.overlap_of_top_k(1, 10, 5) >= 0.8
        assert result.overlap_of_top_k(1, 100, 5) >= 0.8

    def test_edge_counts_shrink_dramatically(self, small_disgenet):
        result = rank_diseases(small_disgenet, s_values=(1, 10, 100))
        assert result.edge_counts[1] > result.edge_counts[10] > result.edge_counts[100] > 0
        assert result.edge_counts[1] / result.edge_counts[100] > 20

    def test_percentiles_high_for_top_diseases(self, small_disgenet):
        result = rank_diseases(small_disgenet, s_values=(1,), top_k=5)
        for _, _, percentile in result.top_ranked[1]:
            assert percentile >= 95.0

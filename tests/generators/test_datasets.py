"""Unit tests for the named dataset surrogates."""
import pytest

from repro.core.dispatch import s_line_graph
from repro.generators.datasets import (
    DATASET_SPECS,
    IMDB_GROUPS,
    IMPORTANT_GENES,
    TOP_DISEASES,
    available_datasets,
    compboard_surrogate,
    condmat_surrogate,
    disgenet_surrogate,
    imdb_surrogate,
    lesmis_surrogate,
    load_dataset,
    virology_surrogate,
)
from repro.hypergraph.properties import compute_stats
from repro.utils.validation import ValidationError


class TestTableIVSurrogates:
    def test_all_eight_datasets_present(self):
        assert len(available_datasets()) == 8
        assert set(available_datasets()) == set(DATASET_SPECS)

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_load_small_scale(self, name):
        h = load_dataset(name, scale=0.1, seed=0)
        stats = compute_stats(h)
        assert stats.num_edges > 0 and stats.num_vertices > 0
        # Skewed hyperedge size distribution, as the paper notes for all inputs.
        assert stats.max_edge_size > stats.avg_edge_size

    def test_deterministic(self):
        assert load_dataset("email-euall", scale=0.2, seed=3) == load_dataset(
            "email-euall", scale=0.2, seed=3
        )

    def test_different_seeds_differ(self):
        a = load_dataset("email-euall", scale=0.2, seed=1)
        b = load_dataset("email-euall", scale=0.2, seed=2)
        assert a != b

    def test_planted_core_survives_s8(self):
        h = load_dataset("livejournal", scale=0.15, seed=0)
        lg = s_line_graph(h, 8, algorithm="vectorized")
        assert lg.num_edges > 0

    def test_unknown_dataset(self):
        with pytest.raises(ValidationError):
            load_dataset("imaginary-graph")

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            load_dataset("web", scale=0.0)


class TestDisgenetSurrogate:
    def test_top_diseases_are_first_vertices(self):
        h = disgenet_surrogate(num_genes=300, num_core_genes=60, seed=0)
        assert h.vertex_names[: len(TOP_DISEASES)] == TOP_DISEASES

    def test_core_diseases_share_many_genes(self):
        h = disgenet_surrogate(num_genes=300, num_core_genes=60, seed=0)
        dual = h.dual()
        # The top two diseases co-occur in at least the number of core genes.
        assert dual.inc(0, 1) >= 60


class TestCondmatSurrogate:
    def test_contains_prolific_collective(self):
        h = condmat_surrogate(num_papers=300, seed=0)
        sizes = h.edge_sizes()
        assert (sizes >= 20).sum() >= 16

    def test_band_structure_spans_thresholds(self):
        h = condmat_surrogate(num_papers=300, seed=0)
        lg12 = s_line_graph(h, 12, algorithm="vectorized")
        lg13 = s_line_graph(h, 13, algorithm="vectorized")
        assert lg12.num_edges > lg13.num_edges > 0


class TestVirologySurrogate:
    def test_hub_genes_present_and_large(self):
        h = virology_surrogate(num_genes=200, seed=0)
        names = h.edge_names
        for gene in IMPORTANT_GENES:
            idx = names.index(gene)
            assert h.edge_size(idx) >= 100

    def test_ifit1_usp18_share_over_100_conditions(self):
        h = virology_surrogate(num_genes=200, seed=0)
        names = h.edge_names
        assert h.inc(names.index("IFIT1"), names.index("USP18")) > 100

    def test_number_of_conditions_matches_paper(self):
        h = virology_surrogate(seed=0)
        assert h.num_vertices == 201


class TestImdbSurrogate:
    def test_planted_star_structure(self):
        h = imdb_surrogate(num_background_actors=50, seed=0)
        names = h.edge_names
        star = IMDB_GROUPS[0]
        adoor = names.index(star[0])
        partners = [names.index(p) for p in star[1:]]
        for p in partners:
            assert h.inc(adoor, p) >= 100
        for a in partners:
            for b in partners:
                if a < b:
                    assert h.inc(a, b) < 100

    def test_planted_pairs(self):
        h = imdb_surrogate(num_background_actors=50, seed=0)
        names = h.edge_names
        for pair in IMDB_GROUPS[1:]:
            a, b = names.index(pair[0]), names.index(pair[1])
            assert h.inc(a, b) >= 100


class TestSmallFigure4Surrogates:
    @pytest.mark.parametrize("factory", [compboard_surrogate, lesmis_surrogate])
    def test_basic_shape(self, factory):
        h = factory(seed=0)
        assert h.num_edges > 0 and h.num_vertices > 0
        assert compute_stats(h).max_edge_size >= 5

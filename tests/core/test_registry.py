"""Unit tests for the Table III variant notation and runner."""

import pytest

from repro.core.algorithms.registry import (
    ALL_VARIANTS,
    parse_variant,
    run_variant,
)
from repro.utils.validation import ValidationError

from tests.conftest import PAPER_EXAMPLE_SLINE_EDGES


class TestParseVariant:
    def test_all_twelve_variants_parse(self):
        assert len(ALL_VARIANTS) == 12
        for notation in ALL_VARIANTS:
            spec = parse_variant(notation)
            assert spec.notation == notation
            assert spec.algorithm in (1, 2)
            assert spec.partitioning in ("blocked", "cyclic")
            assert spec.relabel in ("ascending", "descending", "none")

    def test_specific_decoding(self):
        spec = parse_variant("2BA")
        assert spec.algorithm == 2
        assert spec.partitioning == "blocked"
        assert spec.relabel == "ascending"
        spec = parse_variant("1CN")
        assert spec.algorithm == 1
        assert spec.partitioning == "cyclic"
        assert spec.relabel == "none"

    def test_lowercase_accepted(self):
        assert parse_variant("2cd").notation == "2CD"

    @pytest.mark.parametrize("bad", ["3BA", "2XA", "2BZ", "2B", "2BAA", ""])
    def test_invalid_notations_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_variant(bad)


class TestRunVariant:
    @pytest.mark.parametrize("notation", ALL_VARIANTS)
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_all_variants_agree_on_paper_example(self, paper_example, notation, s):
        result = run_variant(paper_example, s, notation)
        assert result.graph.edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]

    def test_relabelled_edges_mapped_back_to_original_ids(self, community_hypergraph):
        baseline = run_variant(community_hypergraph, 2, "2BN")
        relabelled = run_variant(community_hypergraph, 2, "2BA")
        assert baseline.graph.edge_set() == relabelled.graph.edge_set()

    def test_times_include_relabel_and_overlap(self, paper_example):
        result = run_variant(paper_example, 2, "2CA")
        assert "relabel" in result.times.times
        assert "s_overlap" in result.times.times
        assert result.total_seconds > 0.0

    def test_workload_populated(self, community_hypergraph):
        result = run_variant(community_hypergraph, 2, "2CN", num_workers=4)
        assert result.workload.num_workers == 4
        assert result.workload.total_wedges() > 0

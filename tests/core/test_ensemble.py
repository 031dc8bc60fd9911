"""Unit tests for Algorithm 3 (ensemble of s-line graphs)."""

import pytest

from repro.core.algorithms.ensemble import (
    BYTES_PER_OVERLAP_ENTRY,
    MemoryBudgetError,
    estimate_overlap_memory,
    s_line_graph_ensemble_hashmap,
)
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.parallel.executor import ParallelConfig
from repro.utils.validation import ValidationError

from tests.conftest import PAPER_EXAMPLE_SLINE_EDGES


class TestEnsemble:
    def test_matches_figure2(self, paper_example):
        ensemble, workload = s_line_graph_ensemble_hashmap(paper_example, [1, 2, 3, 4])
        for s in (1, 2, 3, 4):
            assert ensemble[s].edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]
        assert workload.total_set_intersections() == 0

    def test_matches_single_s_algorithm(self, community_hypergraph):
        s_values = [1, 2, 3, 4]
        ensemble, _ = s_line_graph_ensemble_hashmap(community_hypergraph, s_values)
        for s in s_values:
            single = s_line_graph_hashmap(community_hypergraph, s)
            assert ensemble[s] == single.graph

    def test_single_counting_pass(self, paper_example):
        """The counting pass is shared: wedge work equals one hashmap run at s_min."""
        ensemble, workload = s_line_graph_ensemble_hashmap(paper_example, [2, 3])
        single = s_line_graph_hashmap(paper_example, 2)
        assert workload.total_wedges() == single.workload.total_wedges()

    def test_duplicate_and_unsorted_s_values(self, paper_example):
        ensemble, _ = s_line_graph_ensemble_hashmap(paper_example, [3, 1, 3])
        assert ensemble.s_values == [1, 3]

    def test_edge_counts_monotone_in_s(self, community_hypergraph):
        ensemble, _ = s_line_graph_ensemble_hashmap(community_hypergraph, [1, 2, 3, 4, 5])
        counts = ensemble.edge_counts()
        values = [counts[s] for s in sorted(counts)]
        assert values == sorted(values, reverse=True)

    def test_empty_s_values_rejected(self, paper_example):
        with pytest.raises(ValidationError):
            s_line_graph_ensemble_hashmap(paper_example, [])

    def test_parallel_counting_matches_serial(self, community_hypergraph):
        serial, _ = s_line_graph_ensemble_hashmap(community_hypergraph, [2, 3])
        parallel, _ = s_line_graph_ensemble_hashmap(
            community_hypergraph,
            [2, 3],
            config=ParallelConfig(num_workers=3, strategy="cyclic", backend="thread"),
        )
        for s in (2, 3):
            assert serial[s] == parallel[s]


class TestMemoryBudget:
    def test_estimate_is_positive(self, community_hypergraph):
        assert estimate_overlap_memory(community_hypergraph, 1) > 0

    def test_estimate_shrinks_with_pruning(self, paper_example):
        assert estimate_overlap_memory(paper_example, 5) <= estimate_overlap_memory(
            paper_example, 1
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_estimate_is_hashmap_wedges_times_entry_cost(
        self, paper_example, community_hypergraph, s
    ):
        for h in (paper_example, community_hypergraph):
            wedges = s_line_graph_hashmap(h, s).workload.total_wedges()
            assert estimate_overlap_memory(h, s) == wedges * BYTES_PER_OVERLAP_ENTRY

    def test_budget_exceeded_raises(self, community_hypergraph):
        with pytest.raises(MemoryBudgetError):
            s_line_graph_ensemble_hashmap(
                community_hypergraph, [1, 2], memory_budget_bytes=16
            )

    def test_budget_respected_when_large(self, paper_example):
        ensemble, _ = s_line_graph_ensemble_hashmap(
            paper_example, [2], memory_budget_bytes=10**9
        )
        assert ensemble[2].edge_set() == PAPER_EXAMPLE_SLINE_EDGES[2]

    def test_budget_error_is_memory_error(self):
        assert issubclass(MemoryBudgetError, MemoryError)

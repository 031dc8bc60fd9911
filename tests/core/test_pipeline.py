"""Unit and integration tests for the five-stage SLinePipeline."""
import numpy as np
import pytest

from repro.core.pipeline import (
    COMPONENT_METRICS,
    METRIC_FUNCTIONS,
    SLinePipeline,
    component_count,
)
from repro.engine.engine import QueryEngine
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.utils.validation import ValidationError

from tests.conftest import PAPER_EXAMPLE_SLINE_EDGES


class TestConfiguration:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            SLinePipeline(algorithm="bogus")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            SLinePipeline(metrics=("made_up",))

    def test_metrics_require_squeeze(self):
        with pytest.raises(ValidationError):
            SLinePipeline(squeeze=False, metrics=("connected_components",))

    def test_metric_registry_contains_paper_metrics(self):
        for name in ("connected_components", "lpcc", "betweenness", "pagerank"):
            assert name in METRIC_FUNCTIONS


class TestStageOutputs:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_line_graph_matches_figure2(self, paper_example, s):
        result = SLinePipeline(metrics=()).run(paper_example, s)
        assert result.line_graph.edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]

    def test_stage_times_recorded(self, paper_example):
        result = SLinePipeline(metrics=("connected_components",)).run(paper_example, 2)
        for stage in ("preprocessing", "s_overlap", "squeeze", "connected_components"):
            assert stage in result.stage_times.times
        assert result.stage_times.total > 0.0

    def test_squeeze_mapping_consistent(self, paper_example):
        result = SLinePipeline().run(paper_example, 3)
        # s = 3 line graph uses hyperedges {0, 1, 2}.
        assert result.squeeze_mapping.new_to_old.tolist() == [0, 1, 2]
        assert result.squeezed_graph.num_vertices == 3

    def test_metrics_on_squeezed_graph(self, paper_example):
        result = SLinePipeline(
            metrics=("connected_components", "betweenness", "pagerank")
        ).run(paper_example, 2)
        assert result.num_components() == 1
        assert result.metrics["pagerank"].size == 3
        by_edge = result.metric_by_hyperedge("pagerank")
        assert set(by_edge) == {0, 1, 2}
        assert sum(by_edge.values()) == pytest.approx(1.0)

    def test_metric_by_hyperedge_unknown_metric(self, paper_example):
        result = SLinePipeline(metrics=()).run(paper_example, 2)
        with pytest.raises(KeyError):
            result.metric_by_hyperedge("pagerank")

    def test_workload_propagated(self, paper_example):
        result = SLinePipeline().run(paper_example, 2)
        assert result.workload.total_wedges() > 0


class TestPreprocessingInteraction:
    def test_relabel_results_in_original_ids(self, community_hypergraph):
        plain = SLinePipeline(relabel="none", metrics=()).run(community_hypergraph, 2)
        relabelled = SLinePipeline(relabel="ascending", metrics=()).run(
            community_hypergraph, 2
        )
        assert plain.line_graph.edge_set() == relabelled.line_graph.edge_set()

    def test_empty_edges_do_not_shift_ids(self):
        # Edge 1 is empty; edges 0, 2, 3 overlap pairwise in vertex 0.
        h = hypergraph_from_edge_lists(
            [[0, 1], [], [0, 2], [0, 3]], num_vertices=4
        )
        result = SLinePipeline(metrics=()).run(h, 1)
        assert result.line_graph.edge_set() == {(0, 2), (0, 3), (2, 3)}

    def test_toplex_stage_runs(self, paper_example):
        result = SLinePipeline(compute_toplexes=True, metrics=()).run(paper_example, 1)
        assert "toplexes" in result.stage_times.times
        # After simplification only edges {a,b,c,d,e} and {e,f} remain; they overlap in e.
        assert result.line_graph.num_edges == 1

    @pytest.mark.parametrize("algorithm", ["hashmap", "heuristic", "vectorized", "spgemm"])
    def test_pipeline_algorithm_choices_agree(self, community_hypergraph, algorithm):
        result = SLinePipeline(algorithm=algorithm, metrics=()).run(community_hypergraph, 2)
        reference = SLinePipeline(algorithm="naive", metrics=()).run(community_hypergraph, 2)
        assert result.line_graph.edge_set() == reference.line_graph.edge_set()


class TestComponentCounts:
    def test_num_components_none_without_metric(self, paper_example):
        result = SLinePipeline(metrics=("pagerank",)).run(paper_example, 2)
        assert result.num_components() is None

    def test_lpcc_and_bfs_agree(self, community_hypergraph):
        a = SLinePipeline(metrics=("connected_components",)).run(community_hypergraph, 2)
        b = SLinePipeline(metrics=("lpcc",)).run(community_hypergraph, 2)
        assert a.num_components() == b.num_components()

    def test_component_metrics_are_stage5_metrics(self):
        assert COMPONENT_METRICS == ("connected_components", "lpcc")
        assert set(COMPONENT_METRICS) <= set(METRIC_FUNCTIONS)

    def test_component_count_ignores_other_metrics(self):
        assert component_count({}) is None
        assert component_count({"pagerank": np.array([0.5, 0.5])}) is None

    @pytest.mark.parametrize("name", ["connected_components", "lpcc"])
    def test_component_count_from_either_label_metric(self, name):
        assert component_count({name: np.array([0, 0, 1, 2, 1])}) == 3
        assert component_count({name: np.array([], dtype=np.int64)}) == 0

    def test_component_count_reads_connected_components_first(self):
        labels = {"lpcc": np.array([0, 1, 2]), "connected_components": np.array([0, 0, 0])}
        assert component_count(labels) == 1

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["connected_components", "lpcc"])
    def test_pipeline_and_sweep_count_alike(self, paper_example_unlabelled, s, name):
        result = SLinePipeline(metrics=(name,)).run(paper_example_unlabelled, s)
        sweep = QueryEngine(paper_example_unlabelled).sweep([s], metrics=(name,))
        assert result.num_components() == sweep.num_components(s)
        assert result.num_components() == (1 if s < 4 else 0)

"""Tests for :class:`repro.engine.QueryEngine` — caching, sweeps, pipeline reuse."""

import time

import numpy as np
import pytest

from repro.core.filtration import line_graph_from_filtration
from repro.core.pipeline import METRIC_FUNCTIONS, SLinePipeline
from repro.engine.engine import MAX_SWEEP_THRESHOLDS, QueryEngine
from repro.generators.random import random_hypergraph
from repro.utils.validation import ValidationError

from tests.conftest import PAPER_EXAMPLE_SLINE_EDGES


@pytest.fixture
def engine(paper_example_unlabelled):
    return QueryEngine(paper_example_unlabelled)


@pytest.fixture
def random_h():
    sizes = [2 + (i % 5) for i in range(25)]
    return random_hypergraph(num_vertices=30, num_edges=25, edge_sizes=sizes, seed=7)


class TestQueries:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_line_graph_matches_figure_2(self, engine, s):
        assert engine.line_graph(s).edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]

    def test_matches_pipeline_and_oracle(self, random_h):
        engine = QueryEngine(random_h)
        pipeline = SLinePipeline(metrics=("connected_components", "pagerank"))
        for s in range(1, 7):
            served = engine.line_graph(s)
            result = pipeline.run(random_h, s)
            assert served == result.line_graph
            assert served == line_graph_from_filtration(random_h, s)
            assert np.array_equal(
                served.active_vertices, result.line_graph.active_vertices
            )
            for name in ("connected_components", "pagerank"):
                assert np.array_equal(engine.metric(s, name), result.metrics[name])

    def test_metric_by_hyperedge_matches_pipeline(self, engine, paper_example_unlabelled):
        result = SLinePipeline(metrics=("pagerank",)).run(paper_example_unlabelled, 2)
        assert engine.metric_by_hyperedge(2, "pagerank") == pytest.approx(
            result.metric_by_hyperedge("pagerank")
        )

    def test_metrics_share_one_squeeze(self, engine):
        engine.metrics(2, ("connected_components", "lpcc", "pagerank"))
        keys = engine._cache.keys()
        assert sum(1 for _, s, kind in keys if s == 2 and kind == "squeezed") == 1

    def test_unknown_metric_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.metric(2, "nope")

    def test_requires_hypergraph(self):
        with pytest.raises(ValidationError):
            QueryEngine("not a hypergraph")


class TestCaching:
    def test_repeated_queries_hit_cache(self, engine):
        first = engine.line_graph(2)
        assert engine.line_graph(2) is first
        stats = engine.stats()
        assert stats.cache_hits >= 1
        assert stats.index_builds == 1

    def test_index_built_once_for_all_s(self, engine):
        for s in range(1, 6):
            engine.line_graph(s)
        assert engine.stats().index_builds == 1

    def test_tiny_cache_still_correct(self, paper_example_unlabelled):
        engine = QueryEngine(paper_example_unlabelled, cache_size=2)
        for s in (1, 2, 3, 4, 1, 2):
            assert engine.line_graph(s).edge_set() == PAPER_EXAMPLE_SLINE_EDGES[s]
        assert engine.stats().cache_evictions > 0

    def test_cached_arrays_are_read_only(self, engine):
        before = engine.metric_by_hyperedge(2, "pagerank")
        values = engine.metric(2, "pagerank")
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 99.0
        graph, mapping = engine.squeezed_graph(2)
        line_graph = engine.line_graph(2)
        edges_before = line_graph.edge_set()
        for array in (
            mapping.new_to_old,
            *engine.metric_columns(2, "pagerank"),
            line_graph.edges,
            line_graph.weights,
            line_graph.active_vertices,
            graph.indptr,
            graph.indices,
            graph.weights,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 99
        assert engine.metric_by_hyperedge(2, "pagerank") == before
        assert engine.line_graph(2).edge_set() == edges_before
        assert engine.metric(2, "connected_components").tolist() == [0.0, 0.0, 0.0]

    def test_metric_columns_are_the_dict_view_sorted_by_hyperedge(self, engine):
        for name in ("connected_components", "pagerank"):
            ids, values = engine.metric_columns(1, name)
            assert (ids.dtype, values.dtype) == (np.int64, np.float64)
            assert ids.tolist() == sorted(ids.tolist())
            assert dict(zip(ids.tolist(), values.tolist())) == (
                engine.metric_by_hyperedge(1, name)
            )

    def test_hit_rate(self, engine):
        engine.line_graph(2)
        engine.line_graph(2)
        assert 0.0 < engine.stats().hit_rate() < 1.0


class TestSweep:
    def test_sweep_matches_point_queries(self, random_h):
        engine = QueryEngine(random_h)
        sweep = engine.sweep(range(1, 6), metrics=("connected_components",))
        assert sweep.s_values == [1, 2, 3, 4, 5]
        for s in sweep.s_values:
            assert engine.line_graph(s) == QueryEngine(random_h).line_graph(s)
            assert sweep.edge_counts[s] == engine.line_graph(s).num_edges
            assert sweep.active_counts[s] == engine.line_graph(s).num_active_vertices
            assert np.array_equal(
                sweep.metrics[s]["connected_components"],
                engine.metric(s, "connected_components"),
            )

    def test_sweep_components_match_pipeline(self, engine, paper_example_unlabelled):
        sweep = engine.sweep(range(1, 5), metrics=("connected_components",))
        pipeline = SLinePipeline(metrics=("connected_components",))
        for s in range(1, 5):
            assert sweep.num_components(s) == pipeline.run(
                paper_example_unlabelled, s
            ).num_components()

    def test_num_components_without_metric(self, engine):
        sweep = engine.sweep([2])
        assert sweep.num_components(2) is None

    def test_second_sweep_is_all_hits(self, engine):
        engine.sweep(range(1, 5), metrics=("lpcc",))
        misses = engine.stats().cache_misses
        engine.sweep(range(1, 5), metrics=("lpcc",))
        assert engine.stats().cache_misses == misses

    def test_deduplicates_and_sorts_s(self, engine):
        sweep = engine.sweep([3, 1, 3, 2])
        assert sweep.s_values == [1, 2, 3]

    def test_rejects_empty_range(self, engine):
        with pytest.raises(ValidationError):
            engine.sweep([])

    @pytest.mark.parametrize(
        "s_values",
        [range(1, 10**12), list(range(1, MAX_SWEEP_THRESHOLDS + 2))],
        ids=["range", "list"],
    )
    def test_rejects_more_thresholds_than_the_cap_before_doing_any_work(
        self, engine, s_values
    ):
        engine.line_graph(2)
        entries = engine.stats().cache_entries
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="more than 4096 distinct"):
            engine.sweep(s_values)
        assert time.perf_counter() - start < 1.0
        assert engine.stats().cache_entries == entries

    def test_a_sweep_of_exactly_the_cap_succeeds(self, engine):
        repeated = [*range(1, MAX_SWEEP_THRESHOLDS + 1), 1, 2, 3]  # 4096 distinct
        sweep = engine.sweep(repeated)
        assert sweep.s_values == list(range(1, MAX_SWEEP_THRESHOLDS + 1))
        assert sweep.edge_counts[2] == 3 and sweep.edge_counts[MAX_SWEEP_THRESHOLDS] == 0

    def test_rejects_unknown_metric(self, engine):
        with pytest.raises(ValidationError):
            engine.sweep([1], metrics=("bogus",))


class TestPipelineReuse:
    def test_engine_path_matches_plain_pipeline(self, random_h):
        """What the engine caches is byte for byte what the oracle computes,
        for every Stage-5 metric the engine serves."""
        engine = QueryEngine(random_h)
        plain = SLinePipeline(metrics=tuple(METRIC_FUNCTIONS))
        for s in (1, 2, 3, 4):
            expected = plain.run(random_h, s)
            assert engine.line_graph(s) == expected.line_graph
            _, mapping = engine.squeezed_graph(s)
            pairs = [(mapping.new_to_old, expected.squeeze_mapping.new_to_old)]
            for name, computed in expected.metrics.items():
                pairs.append((engine.metric(s, name), computed))
            for served, computed in pairs:
                assert (served.dtype, served.tobytes()) == (computed.dtype, computed.tobytes())
            sweep = engine.sweep([s], metrics=("connected_components",))
            assert sweep.num_components(s) == expected.num_components()

    def test_engine_path_populates_cache(self, random_h):
        engine = QueryEngine(random_h)
        lpcc = engine.metric(2, "lpcc")
        assert engine.metric(2, "lpcc") is lpcc
        assert engine.stats().index_builds == 1
        assert np.array_equal(
            lpcc, SLinePipeline(metrics=("lpcc",)).run(random_h, 2).metrics["lpcc"]
        )


class TestCoauthorshipEngineGuard:
    def test_conflicting_hypergraph_and_engine_rejected(
        self, random_h, paper_example_unlabelled
    ):
        from repro.apps.authors import coauthorship_connectivity

        with pytest.raises(ValueError):
            coauthorship_connectivity(
                hypergraph=random_h,
                engine=QueryEngine(paper_example_unlabelled),
                s_values=(1, 2),
            )

    def test_matching_hypergraph_and_engine_allowed(self, paper_example_unlabelled):
        from repro.apps.authors import coauthorship_connectivity

        result = coauthorship_connectivity(
            hypergraph=paper_example_unlabelled,
            engine=QueryEngine(paper_example_unlabelled),
            s_values=(1, 2),
        )
        assert result.line_graph_sizes == {1: 4, 2: 3}

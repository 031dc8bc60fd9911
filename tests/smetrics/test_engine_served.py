"""The engine serves the s-measure API's answers.

``QueryEngine.metric_by_hyperedge(s, name)`` returns, from its cached
overlap index, the same ``{hyperedge ID: value}`` dict the s-measure
functions compute from scratch — on a fresh engine, on repeat queries,
after incremental updates, and whichever Stage-3 kernel built the
``line_graph`` handed to the s-measure.
"""

import pytest

from repro.core.dispatch import s_line_graph
from repro.engine.engine import QueryEngine
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.parallel.executor import ParallelConfig
from repro.smetrics.centrality import (
    s_betweenness_centrality,
    s_closeness_centrality,
    s_eccentricity,
    s_pagerank,
)
from repro.smetrics.connected import (
    num_s_connected_components,
    s_component_labels,
    s_connected_components,
)
from repro.utils.validation import ValidationError

#: s-measure function → the engine metric that serves the same dict.
MEASURES = {
    s_betweenness_centrality: "betweenness",
    s_closeness_centrality: "closeness",
    s_eccentricity: "eccentricity",
    s_pagerank: "pagerank",
}


#: Every s-measure that is one served metric: the four above plus labels.
SERVED = {**MEASURES, s_component_labels: "connected_components"}

#: The one way to pick a Stage-3 kernel: build ``line_graph`` yourself.
LINE_GRAPH_BUILDS = {
    "spgemm": lambda h, s: s_line_graph(h, s, algorithm="spgemm"),
    "thread_config": lambda h, s: s_line_graph(
        h, s, config=ParallelConfig(num_workers=2, strategy="cyclic", backend="thread")
    ),
}


def edge_lists(h):
    return [members.tolist() for _, members in h.iter_edges()]


def served_components(engine, s):
    """The engine's component labels grouped the way the s-measure API
    groups them: sorted members, larger components first, no singletons."""
    groups = {}
    for edge_id, label in engine.metric_by_hyperedge(s, "connected_components").items():
        groups.setdefault(label, []).append(edge_id)
    components = [sorted(members) for members in groups.values() if len(members) >= 2]
    return sorted(components, key=lambda c: (-len(c), c[0]))


class TestDelegation:
    @pytest.mark.parametrize("measure", list(MEASURES), ids=lambda m: m.__name__)
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_engine_path_matches_direct_path(self, small_random_hypergraph, measure, s):
        engine = QueryEngine(small_random_hypergraph)
        assert engine.metric_by_hyperedge(s, MEASURES[measure]) == pytest.approx(
            measure(small_random_hypergraph, s)
        )

    @pytest.mark.parametrize("s", [1, 2])
    def test_component_functions_match(self, small_random_hypergraph, s):
        engine = QueryEngine(small_random_hypergraph)
        labels = engine.metric_by_hyperedge(s, "connected_components")
        assert labels == s_component_labels(small_random_hypergraph, s)
        assert served_components(engine, s) == s_connected_components(
            small_random_hypergraph, s, min_size=2
        )
        assert len(served_components(engine, s)) == num_s_connected_components(
            small_random_hypergraph, s
        )

    def test_repeat_calls_hit_the_cache(self, small_random_hypergraph):
        engine = QueryEngine(small_random_hypergraph)
        first = engine.metric_by_hyperedge(2, "pagerank")
        hits_before = engine.stats().cache_hits
        assert engine.metric_by_hyperedge(2, "pagerank") == first
        assert engine.stats().cache_hits > hits_before
        assert engine.stats().index_builds == 1


class TestKernelChoice:
    """A ``line_graph`` from another Stage-3 kernel or a parallel config is
    the same graph, so every s-measure is the same dict — the default
    call's and the engine's."""

    @pytest.mark.parametrize("build", sorted(LINE_GRAPH_BUILDS))
    @pytest.mark.parametrize("measure", list(SERVED), ids=lambda m: m.__name__)
    @pytest.mark.parametrize("s", [1, 2])
    def test_chosen_line_graph_serves_the_same_dict(
        self, small_random_hypergraph, build, measure, s
    ):
        h = small_random_hypergraph
        chosen = measure(h, s, line_graph=LINE_GRAPH_BUILDS[build](h, s))
        assert chosen == measure(h, s)
        assert chosen == QueryEngine(h).metric_by_hyperedge(s, SERVED[measure])


class TestAcrossHypergraphs:
    """Every served measure at every s of the paper example (whose s = 4
    line graph is empty) and of the planted-community hypergraph."""

    @pytest.mark.parametrize("measure", list(MEASURES), ids=lambda m: m.__name__)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_paper_example(self, paper_example_unlabelled, measure, s):
        engine = QueryEngine(paper_example_unlabelled)
        expected = measure(paper_example_unlabelled, s)
        assert engine.metric_by_hyperedge(s, MEASURES[measure]) == pytest.approx(expected)
        assert (s == 4) == (expected == {})

    @pytest.mark.parametrize("measure", list(MEASURES), ids=lambda m: m.__name__)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_community_hypergraph(self, community_hypergraph, measure, s):
        engine = QueryEngine(community_hypergraph)
        assert engine.metric_by_hyperedge(s, MEASURES[measure]) == pytest.approx(
            measure(community_hypergraph, s)
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_component_labels(self, community_hypergraph, s):
        engine = QueryEngine(community_hypergraph)
        assert engine.metric_by_hyperedge(s, "connected_components") == (
            s_component_labels(community_hypergraph, s)
        )


class TestAfterUpdates:
    """An engine that was updated in place serves the s-measures of the
    hypergraph built from scratch with the same hyperedges."""

    @pytest.mark.parametrize("measure", list(MEASURES), ids=lambda m: m.__name__)
    def test_after_add(self, community_hypergraph, measure):
        engine = QueryEngine(community_hypergraph)
        name = MEASURES[measure]
        engine.metric_by_hyperedge(2, name)  # warm the entry the add must update
        model = edge_lists(community_hypergraph)
        model.append([0, 1, 2, 3, 4, 5])
        assert engine.add_hyperedge(model[-1]) == len(model) - 1
        rebuilt = hypergraph_from_edge_lists(
            model, num_vertices=community_hypergraph.num_vertices
        )
        assert engine.fingerprint() == rebuilt.fingerprint()
        assert engine.metric_by_hyperedge(2, name) == pytest.approx(measure(rebuilt, 2))

    @pytest.mark.parametrize("measure", list(MEASURES), ids=lambda m: m.__name__)
    def test_after_remove(self, community_hypergraph, measure):
        engine = QueryEngine(community_hypergraph)
        name = MEASURES[measure]
        assert 5 in engine.metric_by_hyperedge(2, name)
        model = edge_lists(community_hypergraph)
        engine.remove_hyperedge(5)
        model[5] = []
        rebuilt = hypergraph_from_edge_lists(
            model, num_vertices=community_hypergraph.num_vertices
        )
        assert engine.fingerprint() == rebuilt.fingerprint()
        served = engine.metric_by_hyperedge(2, name)
        assert 5 not in served
        assert served == pytest.approx(measure(rebuilt, 2))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_component_labels_across_add_and_remove(self, community_hypergraph, s):
        engine = QueryEngine(community_hypergraph)
        assert 5 in engine.metric_by_hyperedge(s, "connected_components")
        model = edge_lists(community_hypergraph)
        model.append([0, 10, 20, 30, 40, 50, 60, 70])
        engine.add_hyperedge(model[-1])
        engine.remove_hyperedge(5)
        model[5] = []
        rebuilt = hypergraph_from_edge_lists(
            model, num_vertices=community_hypergraph.num_vertices
        )
        assert engine.metric_by_hyperedge(s, "connected_components") == (
            s_component_labels(rebuilt, s)
        )
        assert served_components(engine, s) == s_connected_components(
            rebuilt, s, min_size=2
        )


class TestServedErrors:
    def test_unknown_metric_names_the_available_ones(self, paper_example_unlabelled):
        engine = QueryEngine(paper_example_unlabelled)
        with pytest.raises(ValidationError, match="pagerank"):
            engine.metric_by_hyperedge(2, "harmonic")

    @pytest.mark.parametrize("s", [0, -1])
    def test_non_positive_s_rejected(self, paper_example_unlabelled, s):
        engine = QueryEngine(paper_example_unlabelled)
        with pytest.raises(ValidationError):
            engine.metric_by_hyperedge(s, "pagerank")
        with pytest.raises(ValidationError):
            s_pagerank(paper_example_unlabelled, s)

    def test_s_beyond_every_hyperedge_serves_nothing(self, paper_example_unlabelled):
        engine = QueryEngine(paper_example_unlabelled)
        for name in (*MEASURES.values(), "connected_components"):
            assert engine.metric_by_hyperedge(6, name) == {}
        assert s_pagerank(paper_example_unlabelled, 6) == {}

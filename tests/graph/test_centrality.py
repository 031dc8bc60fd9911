"""Unit tests for the Stage-5 graph kernels against networkx oracles."""

import importlib

import networkx as nx
import numpy as np
import pytest

from repro.graph.betweenness import betweenness_centrality
from repro.graph.bfs import bfs_distances
from repro.graph.connected_components import (
    connected_components,
    label_propagation_components,
)
from repro.graph.distance import closeness_centrality, diameter, eccentricity
from repro.graph.graph import Graph
from repro.graph.pagerank import pagerank, score_percentiles


def nx_to_graph(nx_graph):
    g = nx.convert_node_labels_to_integers(nx_graph)
    return Graph.from_edge_list(g.number_of_nodes(), list(g.edges()))


ORACLE_GRAPHS = {
    "path": nx.path_graph(7),
    "star": nx.star_graph(6),
    "cycle": nx.cycle_graph(8),
    "karate": nx.karate_club_graph(),
    "barbell": nx.barbell_graph(4, 2),
    "disconnected": nx.disjoint_union(nx.path_graph(4), nx.cycle_graph(5)),
}


class TestBetweenness:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_networkx(self, name):
        nx_graph = ORACLE_GRAPHS[name]
        ours = betweenness_centrality(nx_to_graph(nx_graph))
        theirs = nx.betweenness_centrality(
            nx.convert_node_labels_to_integers(nx_graph), normalized=True
        )
        for v, expected in theirs.items():
            assert ours[v] == pytest.approx(expected, abs=1e-9)

    def test_star_center_dominates(self):
        g = nx_to_graph(nx.star_graph(5))
        scores = betweenness_centrality(g)
        assert np.argmax(scores) == 0
        assert scores[1:].max() == 0.0


class TestPageRank:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_networkx(self, name):
        nx_graph = nx.convert_node_labels_to_integers(ORACLE_GRAPHS[name])
        ours = pagerank(nx_to_graph(nx_graph))
        theirs = nx.pagerank(nx_graph, alpha=0.85, tol=1e-12, max_iter=1000, weight=None)
        for v, expected in theirs.items():
            assert ours[v] == pytest.approx(expected, abs=1e-6)

    def test_scores_sum_to_one(self):
        g = nx_to_graph(nx.karate_club_graph())
        assert pagerank(g).sum() == pytest.approx(1.0)

    def test_graph_with_isolated_vertices(self):
        g = Graph.from_edge_list(4, np.array([[0, 1]]))
        scores = pagerank(g)
        assert scores.sum() == pytest.approx(1.0)
        assert scores[2] == pytest.approx(scores[3])

    def test_not_converging_within_the_cap_raises(self, monkeypatch):
        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.graph.pagerank")
        monkeypatch.setattr(module, "MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="within 1 iterations"):
            pagerank(nx_to_graph(nx.path_graph(5)))


def partition(labels):
    groups = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(v)
    return {frozenset(members) for members in groups.values()}


class TestTraversalOracles:
    """The other Stage-5 kernels on the same graphs, against networkx."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_closeness_matches_networkx(self, name):
        nx_graph = nx.convert_node_labels_to_integers(ORACLE_GRAPHS[name])
        ours = closeness_centrality(nx_to_graph(nx_graph))
        theirs = nx.closeness_centrality(nx_graph)
        for v, expected in theirs.items():
            assert ours[v] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_eccentricity_matches_networkx_per_component(self, name):
        nx_graph = nx.convert_node_labels_to_integers(ORACLE_GRAPHS[name])
        ours = eccentricity(nx_to_graph(nx_graph))
        for component in nx.connected_components(nx_graph):
            theirs = nx.eccentricity(nx_graph.subgraph(component))
            for v, expected in theirs.items():
                assert ours[v] == expected
        assert diameter(nx_to_graph(nx_graph)) == max(
            max(nx.eccentricity(nx_graph.subgraph(c)).values())
            for c in nx.connected_components(nx_graph)
        )

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_components_match_networkx(self, name):
        nx_graph = nx.convert_node_labels_to_integers(ORACLE_GRAPHS[name])
        labels = connected_components(nx_to_graph(nx_graph))
        assert partition(labels) == {
            frozenset(c) for c in nx.connected_components(nx_graph)
        }
        # Labels are numbered in order of each component's smallest vertex.
        firsts = [labels.tolist().index(k) for k in range(labels.max() + 1)]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_label_propagation_matches_components(self, name):
        graph = nx_to_graph(ORACLE_GRAPHS[name])
        assert partition(label_propagation_components(graph)) == partition(
            connected_components(graph)
        )

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_bfs_distances_match_networkx(self, name):
        nx_graph = nx.convert_node_labels_to_integers(ORACLE_GRAPHS[name])
        graph = nx_to_graph(nx_graph)
        for source in (0, graph.num_vertices - 1):
            theirs = nx.single_source_shortest_path_length(nx_graph, source)
            expected = [theirs.get(v, -1) for v in range(graph.num_vertices)]
            assert bfs_distances(graph, source).tolist() == expected


class TestRankingHelpers:
    def test_score_percentiles_top_is_100(self):
        pct = score_percentiles(np.array([0.1, 0.9, 0.5, 0.9]))
        assert pct[1] == pytest.approx(100.0)
        assert pct[3] == pytest.approx(100.0)
        assert pct[0] == pytest.approx(25.0)

    def test_score_percentiles_edge_cases(self):
        assert score_percentiles(np.array([])).size == 0
        assert score_percentiles(np.array([3.0])).tolist() == [100.0]

"""Unit tests for s-centrality measures (validated against networkx on the line graph)."""

import networkx as nx
import pytest

from repro.core.dispatch import s_line_graph
from repro.smetrics.centrality import (
    s_betweenness_centrality,
    s_closeness_centrality,
    s_eccentricity,
    s_pagerank,
)


def networkx_line_graph(h, s):
    """Independent construction of the s-line graph as a networkx graph."""
    g = nx.Graph()
    for i in range(h.num_edges):
        for j in range(i + 1, h.num_edges):
            if h.inc(i, j) >= s:
                g.add_edge(i, j)
    return g


class TestSBetweenness:
    def test_bridging_hyperedge_has_max_score(self, paper_example):
        scores = s_betweenness_centrality(paper_example, 1)
        # Hyperedge 3 ({a..e}) bridges {1, 2} and {4}: highest betweenness.
        assert max(scores, key=scores.get) == 2
        assert scores[3] == 0.0

    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_networkx_on_community_hypergraph(self, community_hypergraph, s):
        ours = s_betweenness_centrality(community_hypergraph, s)
        oracle_graph = networkx_line_graph(community_hypergraph, s)
        theirs = nx.betweenness_centrality(oracle_graph, normalized=True)
        assert set(ours) == set(theirs)
        for edge_id, expected in theirs.items():
            assert ours[edge_id] == pytest.approx(expected, abs=1e-9)

    def test_keys_are_original_hyperedge_ids(self, paper_example):
        scores = s_betweenness_centrality(paper_example, 3)
        assert set(scores) == {0, 1, 2}

    def test_partnerless_member_of_E_s_is_not_scored(self, paper_example):
        # Hyperedge 3 ({e, f}) has size 2 >= s but no 2-incident partner.
        scores = s_betweenness_centrality(paper_example, 2)
        assert set(scores) == {0, 1, 2}


class TestOtherCentralities:
    def test_closeness_matches_networkx(self, community_hypergraph):
        ours = s_closeness_centrality(community_hypergraph, 2)
        oracle = networkx_line_graph(community_hypergraph, 2)
        theirs = nx.closeness_centrality(oracle)
        for edge_id, expected in theirs.items():
            assert ours[edge_id] == pytest.approx(expected, abs=1e-9)

    def test_eccentricity_values(self, paper_example):
        ecc = s_eccentricity(paper_example, 1)
        # Line graph at s=1: triangle {0,1,2} plus pendant 3 attached to 2.
        assert ecc[2] == 1.0
        assert ecc[3] == 2.0

    def test_pagerank_sums_to_one(self, community_hypergraph):
        scores = s_pagerank(community_hypergraph, 2)
        assert sum(scores.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_closeness_matches_networkx_on_random_hypergraph(self, small_random_hypergraph, s):
        ours = s_closeness_centrality(small_random_hypergraph, s)
        theirs = nx.closeness_centrality(networkx_line_graph(small_random_hypergraph, s))
        assert set(ours) == set(theirs)
        for edge_id, expected in theirs.items():
            assert ours[edge_id] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_eccentricity_matches_networkx_on_random_hypergraph(
        self, small_random_hypergraph, s
    ):
        ours = s_eccentricity(small_random_hypergraph, s)
        oracle = networkx_line_graph(small_random_hypergraph, s)
        assert set(ours) == set(oracle)
        for component in nx.connected_components(oracle):
            for edge_id, expected in nx.eccentricity(oracle.subgraph(component)).items():
                assert ours[edge_id] == expected

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pagerank_matches_networkx_on_random_hypergraph(self, small_random_hypergraph, s):
        ours = s_pagerank(small_random_hypergraph, s)
        theirs = nx.pagerank(
            networkx_line_graph(small_random_hypergraph, s),
            alpha=0.85, tol=1e-12, max_iter=1000, weight=None,
        )
        assert set(ours) == set(theirs)
        for edge_id, expected in theirs.items():
            assert ours[edge_id] == pytest.approx(expected, abs=1e-6)

    def test_pagerank_reuses_line_graph(self, paper_example):
        lg = s_line_graph(paper_example, 1)
        direct = s_pagerank(paper_example, 1)
        reused = s_pagerank(paper_example, 1, line_graph=lg)
        assert direct == reused

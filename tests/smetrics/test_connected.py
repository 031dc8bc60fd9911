"""Unit tests for s-connected components."""

from repro.core.dispatch import s_line_graph
from repro.smetrics.connected import (
    num_s_connected_components,
    s_component_labels,
    s_connected_components,
)


class TestSComponentLabels:
    def test_paper_example_s1(self, paper_example):
        labels = s_component_labels(paper_example, 1)
        # All four hyperedges are 1-connected (Figure 2, s = 1).
        assert set(labels) == {0, 1, 2, 3}
        assert len(set(labels.values())) == 1

    def test_paper_example_s2_excludes_edge4(self, paper_example):
        labels = s_component_labels(paper_example, 2)
        assert set(labels) == {0, 1, 2}
        assert [type(label) for label in labels.values()] == [int] * 3

    def test_reuse_precomputed_line_graph(self, paper_example):
        line_graph = s_line_graph(paper_example, 2)
        labels = s_component_labels(paper_example, 2, line_graph=line_graph)
        assert set(labels) == {0, 1, 2}


class TestSConnectedComponents:
    def test_sorted_by_size(self, community_hypergraph):
        comps = s_connected_components(community_hypergraph, 2)
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)

    def test_min_size_filter(self, paper_example):
        assert s_connected_components(paper_example, 2, min_size=3) == [[0, 1, 2]]
        assert s_connected_components(paper_example, 2, min_size=4) == []

    def test_components_partition_hyperedges(self, community_hypergraph):
        comps = s_connected_components(community_hypergraph, 2)
        flattened = [e for comp in comps for e in comp]
        assert len(flattened) == len(set(flattened))

    def test_members_are_pairwise_s_connected(self, paper_example):
        comps = s_connected_components(paper_example, 3)
        assert comps == [[0, 1, 2]]
        # Every member pair has an s-walk, i.e. the overlaps along it are >= 3.
        assert paper_example.inc(0, 2) >= 3 and paper_example.inc(1, 2) >= 3


class TestCount:
    def test_counts(self, paper_example):
        assert num_s_connected_components(paper_example, 1) == 1
        assert num_s_connected_components(paper_example, 2) == 1
        assert num_s_connected_components(paper_example, 5) == 0

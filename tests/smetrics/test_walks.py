"""Unit tests for s-walk / s-path utilities."""

import pytest

from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.smetrics.walks import is_s_path, is_s_walk, s_reachable_set, shortest_s_path
from repro.utils.validation import ValidationError


class TestIsSWalk:
    def test_paper_example_walks(self, paper_example):
        # Edges 1-3-4 (0-indexed 0, 2, 3) form a 1-walk: inc(1,3)=3, inc(3,4)=1.
        assert is_s_walk(paper_example, [0, 2, 3], 1)
        assert not is_s_walk(paper_example, [0, 2, 3], 2)
        assert is_s_walk(paper_example, [0, 1, 2], 2)

    def test_trivial_walks(self, paper_example):
        assert is_s_walk(paper_example, [], 3)
        assert is_s_walk(paper_example, [2], 5)

    def test_unknown_edge_raises(self, paper_example):
        with pytest.raises(ValidationError):
            is_s_walk(paper_example, [0, 99], 1)

    def test_s_path_rejects_repeats(self, paper_example):
        assert is_s_path(paper_example, [0, 2, 1], 2)
        assert not is_s_path(paper_example, [0, 2, 0], 2)


class TestShortestSPath:
    def test_direct_and_two_hop_paths(self, paper_example):
        assert shortest_s_path(paper_example, 0, 1, 2) == [0, 1]
        path = shortest_s_path(paper_example, 0, 3, 1)
        assert path[0] == 0 and path[-1] == 3 and len(path) == 3
        assert is_s_path(paper_example, path, 1)

    def test_paper_example_paths_are_pinned(self, paper_example):
        expected = {
            (0, 3, 1): [0, 2, 3],
            (3, 0, 1): [3, 2, 0],
            (1, 3, 1): [1, 2, 3],
            (3, 1, 1): [3, 2, 1],
            (1, 0, 1): [1, 0],
            (0, 2, 2): [0, 2],
            (2, 1, 2): [2, 1],
            (0, 3, 2): None,
        }
        for (source, target, s), path in expected.items():
            assert shortest_s_path(paper_example, source, target, s) == path

    def test_tied_paths_go_through_the_lowest_first_reached_predecessor(self):
        # A 4-cycle of hyperedges: every opposite pair has two shortest
        # 1-paths, and the one through the lower hyperedge ID is returned.
        h = hypergraph_from_edge_lists([[0, 1], [1, 2], [0, 3], [2, 3]])
        assert shortest_s_path(h, 0, 3, 1) == [0, 1, 3]
        assert shortest_s_path(h, 3, 0, 1) == [3, 1, 0]
        assert shortest_s_path(h, 1, 2, 1) == [1, 0, 2]
        assert shortest_s_path(h, 2, 1, 1) == [2, 0, 1]

    def test_same_endpoints(self, paper_example):
        assert shortest_s_path(paper_example, 2, 2, 1) == [2]

    def test_disconnected_returns_none(self):
        h = hypergraph_from_edge_lists([[0, 1], [1, 2], [5, 6], [6, 7]])
        assert shortest_s_path(h, 0, 1, 1) == [0, 1]
        assert shortest_s_path(h, 0, 2, 1) is None
        assert shortest_s_path(h, 0, 3, 1) is None

    def test_endpoints_must_be_in_Es(self, paper_example):
        with pytest.raises(ValidationError):
            shortest_s_path(paper_example, 0, 3, 3)

    def test_partnerless_member_of_E_s_is_unreachable(self, paper_example):
        # Hyperedge 3 ({e, f}) is in E_2 but shares 2 vertices with nothing.
        assert shortest_s_path(paper_example, 0, 3, 2) is None
        assert shortest_s_path(paper_example, 3, 0, 2) is None

    def test_every_hop_is_s_incident(self, community_hypergraph):
        # Pick two hyperedges in the same 2-connected component.
        from repro.smetrics.connected import s_connected_components

        comps = s_connected_components(community_hypergraph, 2, min_size=3)
        if not comps:
            pytest.skip("no suitable component in the fixture")
        src, dst = comps[0][0], comps[0][-1]
        path = shortest_s_path(community_hypergraph, src, dst, 2)
        assert path is not None
        assert is_s_path(community_hypergraph, path, 2)


class TestReachableSet:
    def test_paper_example(self, paper_example):
        assert s_reachable_set(paper_example, 0, 1) == [0, 1, 2, 3]
        assert s_reachable_set(paper_example, 0, 2) == [0, 1, 2]
        assert s_reachable_set(paper_example, 2, 4) == [2]

    def test_matches_component(self, community_hypergraph):
        from repro.smetrics.connected import s_connected_components

        comps = s_connected_components(community_hypergraph, 2)
        for comp in comps[:3]:
            assert s_reachable_set(community_hypergraph, comp[0], 2) == comp

    def test_requires_membership_in_Es(self, paper_example):
        with pytest.raises(ValidationError):
            s_reachable_set(paper_example, 3, 4)

    def test_partnerless_member_of_E_s_reaches_only_itself(self, paper_example):
        assert s_reachable_set(paper_example, 3, 2) == [3]

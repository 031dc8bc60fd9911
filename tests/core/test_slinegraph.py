"""Unit tests for the SLineGraph result type."""

import numpy as np
import pytest

from repro.core.slinegraph import SLineGraph, SLineGraphEnsemble
from repro.utils.validation import ValidationError


def make_graph(s=2, edges=((0, 1, 2), (1, 3, 5)), num_hyperedges=5, active=None):
    return SLineGraph.from_weighted_pairs(
        s=s, pairs=list(edges), num_hyperedges=num_hyperedges, active_vertices=active
    )


class TestConstruction:
    def test_basic(self):
        g = make_graph()
        assert g.num_edges == 2
        assert g.edge_set() == {(0, 1), (1, 3)}
        assert g.weight_map() == {(0, 1): 2, (1, 3): 5}

    def test_empty(self):
        g = SLineGraph.from_weighted_pairs(s=3, pairs=[], num_hyperedges=4)
        assert g.num_edges == 0
        assert g.vertex_ids.size == 0
        assert g.num_active_vertices == 0

    def test_unordered_pairs_normalised(self):
        g = make_graph(edges=((3, 1, 5), (1, 0, 2)))
        assert g.edges.tolist() == [[0, 1], [1, 3]]

    def test_duplicate_pairs_collapsed(self):
        g = make_graph(edges=((0, 1, 2), (1, 0, 3)))
        assert g.num_edges == 1
        assert g.weights.tolist() == [3]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(edges=((1, 1, 2),))

    def test_weight_below_s_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(s=4, edges=((0, 1, 2),))

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(edges=((0, 9, 2),), num_hyperedges=5)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            make_graph(edges=((-1, 0, 2),), num_hyperedges=5)

    @pytest.mark.parametrize("active", [[0, 5], [-1, 4], [5, -1]])
    def test_active_vertices_outside_the_id_space_rejected(self, active):
        with pytest.raises(ValidationError, match="active_vertices"):
            SLineGraph(
                s=1, edges=[], weights=[], num_hyperedges=5, active_vertices=active
            )

    def test_active_vertices_at_both_ends_of_the_id_space_accepted(self):
        g = SLineGraph(
            s=1, edges=[], weights=[], num_hyperedges=5, active_vertices=[4, 0]
        )
        assert g.active_vertices.tolist() == [0, 4]

    def test_invalid_s(self):
        with pytest.raises(ValidationError):
            make_graph(s=0)

    def test_degree_of(self):
        g = make_graph()
        assert g.degree_of(1) == 2
        assert g.degree_of(4) == 0


class TestSqueeze:
    def test_squeeze_compacts_ids(self):
        g = make_graph(edges=((2, 7, 3), (7, 9, 4)), num_hyperedges=10, s=2)
        squeezed, mapping = g.squeeze()
        assert mapping.new_to_old.tolist() == [2, 7, 9]
        assert squeezed.edge_set() == {(0, 1), (1, 2)}
        assert squeezed.weights.tolist() == [3, 4]

    def test_squeeze_drops_edgeless_active_vertices(self):
        g = make_graph(
            edges=((2, 7, 3),), num_hyperedges=10, s=2, active=np.array([2, 5, 7])
        )
        squeezed, mapping = g.squeeze()
        assert mapping.new_to_old.tolist() == [2, 7]
        assert squeezed.num_active_vertices == 2

    def test_squeeze_empty(self):
        g = SLineGraph.from_weighted_pairs(s=2, pairs=[], num_hyperedges=5)
        squeezed, mapping = g.squeeze()
        assert squeezed.num_edges == 0
        assert mapping.num_ids == 0

    def test_mapping_rekeys_values_by_original_id(self):
        g = make_graph(edges=((2, 7, 3), (7, 9, 4)), num_hyperedges=10, s=2)
        _, mapping = g.squeeze()
        ids, values = mapping.columns(np.array([5, 0, 1]))
        assert (ids.dtype, values.dtype) == (np.int64, np.float64)
        assert ids.tolist() == [2, 7, 9] and values.tolist() == [5.0, 0.0, 1.0]
        rekeyed = mapping.by_hyperedge(np.array([5, 0, 1]))
        assert rekeyed == {2: 5.0, 7: 0.0, 9: 1.0}
        assert [type(k) for k in rekeyed] == [int] * 3
        assert [type(v) for v in rekeyed.values()] == [float] * 3


class TestTranslateIds:
    """Every map must give what gathering by hand and re-running the full
    constructor gives; the cheap paths only skip work."""

    @pytest.mark.parametrize(
        "new_to_old, num_hyperedges",
        [
            ([0, 1, 2, 3, 4], 5),  # identity
            ([0, 1, 2, 3, 4], 7),  # identity into a larger ID space
            ([1, 3, 4, 8, 9], 10),  # edges were dropped: strictly increasing
            ([4, 0, 3, 1, 2], 5),  # degree relabel: a permutation
            ([9, 2, 7, 0, 4], 10),  # both
        ],
    )
    @pytest.mark.parametrize("active", [None, [0, 1, 3, 4]])
    def test_equals_the_full_constructor_on_gathered_arrays(
        self, new_to_old, num_hyperedges, active
    ):
        g = make_graph(edges=((0, 1, 2), (1, 3, 5), (0, 4, 3)), active=active)
        mapping = np.asarray(new_to_old, dtype=np.int64)
        translated = g.translate_ids(mapping, num_hyperedges)
        reference = SLineGraph(
            s=g.s,
            edges=mapping[g.edges],
            weights=g.weights,
            num_hyperedges=num_hyperedges,
            active_vertices=None if active is None else mapping[active],
        )
        assert translated == reference
        assert translated.edges.dtype == translated.weights.dtype == np.int64
        if active is None:
            assert translated.active_vertices is None
        else:
            assert np.array_equal(translated.active_vertices, reference.active_vertices)

    def test_identity_returns_the_graph_itself(self):
        g = make_graph()
        assert g.translate_ids(np.arange(5), 5) is g
        assert g.translate_ids(np.arange(5), 6) is not g

    def test_empty_graph(self):
        g = SLineGraph.from_weighted_pairs(s=1, pairs=[], num_hyperedges=0)
        assert g.translate_ids(np.empty(0, dtype=np.int64), 3).num_hyperedges == 3


class TestConversions:
    def test_adjacency_matrix_unsqueezed(self):
        g = make_graph()
        A = g.adjacency_matrix(weighted=True).toarray()
        assert A.shape == (5, 5)
        assert A[0, 1] == 2 and A[1, 0] == 2
        assert A[1, 3] == 5

    def test_adjacency_matrix_squeezed(self):
        g = make_graph(edges=((2, 7, 3),), num_hyperedges=10)
        A = g.adjacency_matrix(squeezed=True).toarray()
        assert A.shape == (2, 2)

    def test_to_graph(self):
        g = make_graph()
        graph = g.to_graph()
        assert graph.num_edges == 2
        assert graph.metadata["s"] == 2

    def test_to_networkx(self):
        g = make_graph(active=np.array([0, 1, 2, 3, 4]))
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 5
        assert nxg.number_of_edges() == 2
        assert nxg[0][1]["weight"] == 2
        assert nxg.graph["s"] == 2

    def test_equality(self):
        assert make_graph() == make_graph()
        assert make_graph() != make_graph(edges=((0, 1, 2),))


class TestEnsemble:
    def test_access_and_edge_counts(self):
        ens = SLineGraphEnsemble(
            graphs={
                1: make_graph(s=1, edges=((0, 1, 1), (1, 2, 2))),
                2: make_graph(s=2, edges=((1, 2, 2),)),
            }
        )
        assert ens.s_values == [1, 2]
        assert 1 in ens and 3 not in ens
        assert len(ens) == 2
        assert ens.edge_counts() == {1: 2, 2: 1}
        assert ens[2].num_edges == 1
        assert [s for s, _ in ens.items()] == [1, 2]

"""Tests for :meth:`Hypergraph.fingerprint` (the engine cache key)."""

import numpy as np

from repro.generators import load_dataset
from repro.hypergraph.builders import (
    hypergraph_from_edge_lists,
)
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph

EDGE_LISTS = [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]]


class TestFingerprintStability:
    def test_is_hex_sha256(self, paper_example_unlabelled):
        fp = paper_example_unlabelled.fingerprint()
        assert isinstance(fp, str)
        assert len(fp) == 64
        int(fp, 16)  # raises if not hex

    def test_memoised_and_deterministic(self, paper_example_unlabelled):
        first = paper_example_unlabelled.fingerprint()
        assert paper_example_unlabelled.fingerprint() is first
        rebuilt = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        assert rebuilt.fingerprint() == first

    def test_member_order_does_not_matter(self):
        a = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        shuffled = [list(reversed(members)) for members in EDGE_LISTS]
        b = hypergraph_from_edge_lists(shuffled, num_vertices=6)
        assert a.fingerprint() == b.fingerprint()

    def test_labels_do_not_matter(self, paper_example, paper_example_unlabelled):
        assert paper_example.fingerprint() == paper_example_unlabelled.fingerprint()

    def test_duplicate_members_collapse(self):
        a = hypergraph_from_edge_lists([[0, 1, 1, 2], [2, 3]], num_vertices=4)
        b = hypergraph_from_edge_lists([[0, 1, 2], [3, 2]], num_vertices=4)
        assert a.fingerprint() == b.fingerprint()

    def test_unsorted_direct_csr_matches_builder(self):
        # A CSR built by hand with unsorted rows hashes like the canonical one.
        direct = Hypergraph(
            edges=CSRMatrix(
                indptr=np.array([0, 3, 5]),
                indices=np.array([2, 0, 1, 3, 2]),
                num_cols=4,
            )
        )
        built = hypergraph_from_edge_lists([[0, 1, 2], [2, 3]], num_vertices=4)
        assert direct.fingerprint() == built.fingerprint()


class TestFingerprintPinned:
    """The digest is a storage format: manifests and WAL records carry it.

    These hex values were produced by the sort-every-row implementation;
    a store written then must still open, so they may never change.
    """

    def test_paper_example_digest(self, paper_example_unlabelled):
        assert paper_example_unlabelled.fingerprint() == (
            "7434a26ffc73dbae3c4ee43c7fdc470277c9653a423ff491d10c8d97f42a5e43"
        )

    def test_generated_dataset_digest(self):
        h = load_dataset("livejournal", scale=0.2, seed=7)
        assert (h.num_vertices, h.num_edges, h.num_incidences) == (640, 804, 6957)
        assert h.fingerprint() == (
            "4c2cc7d999fcfec7d426d1d509c41509bc1b3d0ec67dcaa761afa023b8125210"
        )

    def test_sorted_rows_and_unsorted_rows_share_the_digest(self):
        # Same structure, with empty rows at both ends and in the middle:
        # ascending rows are hashed as stored, descending rows are sorted.
        indptr = np.array([0, 0, 3, 3, 5, 6, 6])
        ascending = Hypergraph(
            edges=CSRMatrix(indptr, np.array([0, 2, 4, 1, 3, 0]), num_cols=5)
        )
        descending = Hypergraph(
            edges=CSRMatrix(indptr, np.array([4, 2, 0, 3, 1, 0]), num_cols=5)
        )
        built = hypergraph_from_edge_lists(
            [[], [0, 2, 4], [], [1, 3], [0], []], num_vertices=5
        )
        assert ascending.fingerprint() == descending.fingerprint() == built.fingerprint()

    def test_row_boundary_descent_is_not_mistaken_for_disorder(self):
        # Each row ascends; the flat index array descends only across rows.
        h = Hypergraph(
            edges=CSRMatrix(np.array([0, 2, 4]), np.array([2, 3, 0, 1]), num_cols=4)
        )
        built = hypergraph_from_edge_lists([[3, 2], [1, 0]], num_vertices=4)
        assert h.fingerprint() == built.fingerprint()


class TestFingerprintSensitivity:
    def test_structure_changes_fingerprint(self):
        base = hypergraph_from_edge_lists(EDGE_LISTS, num_vertices=6)
        changed = hypergraph_from_edge_lists(
            [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 5], [4, 5]], num_vertices=6
        )
        assert base.fingerprint() != changed.fingerprint()

    def test_edge_order_matters(self):
        # Hyperedge IDs are semantic (they are the s-line-graph vertex IDs).
        a = hypergraph_from_edge_lists([[0, 1], [2, 3]], num_vertices=4)
        b = hypergraph_from_edge_lists([[2, 3], [0, 1]], num_vertices=4)
        assert a.fingerprint() != b.fingerprint()

    def test_vertex_count_matters(self):
        a = hypergraph_from_edge_lists([[0, 1]], num_vertices=2)
        b = hypergraph_from_edge_lists([[0, 1]], num_vertices=3)
        assert a.fingerprint() != b.fingerprint()

    def test_empty_trailing_edge_matters(self):
        a = hypergraph_from_edge_lists([[0, 1]], num_vertices=2)
        b = hypergraph_from_edge_lists([[0, 1], []], num_vertices=2)
        assert a.fingerprint() != b.fingerprint()

    def test_dual_differs_for_asymmetric_shape(self, paper_example_unlabelled):
        h = paper_example_unlabelled
        assert h.fingerprint() != h.dual().fingerprint()

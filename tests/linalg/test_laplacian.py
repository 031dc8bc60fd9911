"""Unit tests for Laplacians, algebraic connectivity and eigenvalue helpers.

The combinatorial Laplacian oracles are networkx's ``laplacian_matrix``,
fed straight to :func:`smallest_eigenvalues`.
"""

import math

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

from repro.linalg.laplacian import normalized_algebraic_connectivity, normalized_laplacian
from repro.linalg.spectral import smallest_eigenvalues
from repro.utils.validation import ValidationError


def adjacency_of(nx_graph):
    return nx.to_scipy_sparse_array(nx_graph, format="csr").astype(float)


def second_smallest(nx_graph):
    """The Fiedler value of ``nx_graph``'s combinatorial Laplacian."""
    return smallest_eigenvalues(nx.laplacian_matrix(nx_graph), k=2)[1]


class TestLaplacians:
    def test_normalized_laplacian_matches_networkx(self):
        g = nx.karate_club_graph()
        ours = normalized_laplacian(adjacency_of(g)).toarray()
        theirs = nx.normalized_laplacian_matrix(g).toarray()
        assert np.allclose(ours, theirs)

    def test_isolated_vertices_give_identity_rows(self):
        adj = sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        L = normalized_laplacian(adj).toarray()
        assert L[2, 2] == pytest.approx(1.0)
        assert L[2, 0] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            normalized_laplacian(sparse.csr_matrix((2, 3)))

    def test_asymmetric_rejected(self):
        adj = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            normalized_laplacian(adj)


class TestAlgebraicConnectivity:
    def test_fiedler_value_matches_networkx_on_connected_graphs(self):
        for g in (nx.path_graph(10), nx.cycle_graph(9), nx.karate_club_graph()):
            ours = second_smallest(g)
            theirs = nx.algebraic_connectivity(g, method="lanczos")
            assert ours == pytest.approx(theirs, rel=1e-5, abs=1e-8)

    def test_normalized_matches_networkx(self):
        g = nx.karate_club_graph()
        ours = normalized_algebraic_connectivity(adjacency_of(g))
        theirs = nx.algebraic_connectivity(g, normalized=True, method="lanczos")
        assert ours == pytest.approx(theirs, rel=1e-5, abs=1e-8)

    def test_disconnected_graph_has_zero_connectivity(self):
        g = nx.disjoint_union(nx.path_graph(3), nx.path_graph(3))
        assert second_smallest(g) == pytest.approx(0.0, abs=1e-8)

    def test_complete_graph_normalized_value(self):
        # Normalized Laplacian of K_n has eigenvalues {0, n/(n-1) × (n-1 times)}.
        n = 6
        value = normalized_algebraic_connectivity(adjacency_of(nx.complete_graph(n)))
        assert value == pytest.approx(n / (n - 1))

    def test_tiny_graphs(self):
        assert normalized_algebraic_connectivity(sparse.csr_matrix((1, 1))) == 0.0
        assert normalized_algebraic_connectivity(sparse.csr_matrix((0, 0))) == 0.0


class TestEigenvalueHelpers:
    def test_smallest_eigenvalues_sorted(self):
        lap = nx.laplacian_matrix(nx.path_graph(30))
        eigs = smallest_eigenvalues(lap, k=3)
        assert eigs.tolist() == sorted(eigs.tolist())
        assert eigs[0] == pytest.approx(0.0, abs=1e-8)

    def test_k_larger_than_n_is_clamped(self):
        lap = nx.laplacian_matrix(nx.path_graph(3))
        assert smallest_eigenvalues(lap, k=10).size == 3

    def test_invalid_k(self):
        lap = nx.laplacian_matrix(nx.path_graph(3))
        with pytest.raises(ValidationError):
            smallest_eigenvalues(lap, k=0)

    def test_large_sparse_path_uses_arpack(self):
        ours = second_smallest(nx.path_graph(200))
        # The path graph's algebraic connectivity has a closed form, so the
        # oracle is exact — no second iterative eigensolver whose own
        # convergence jitter (which varies with BLAS thread load) can fail
        # the comparison.  1e-3 still distinguishes the Fiedler value from
        # its neighbours (the next eigenvalue is ~4x larger).
        analytic = 2.0 * (1.0 - math.cos(math.pi / 200))
        assert ours == pytest.approx(analytic, rel=1e-3, abs=1e-6)

    def test_fiedler_value(self):
        assert second_smallest(nx.complete_graph(5)) == pytest.approx(5.0)

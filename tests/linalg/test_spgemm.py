"""Unit tests for the Gustavson SpGEMM kernels."""

import numpy as np
import pytest
from scipy import sparse

from repro.linalg.spgemm import spgemm_gustavson, spgemm_scipy, spgemm_upper_triangle
from repro.utils.validation import ValidationError


def random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sparse.random(
        rows, cols, density=density, random_state=rng, format="csr",
        data_rvs=lambda n: rng.integers(1, 5, size=n),
    ).astype(np.int64)


class TestSpGEMM:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gustavson_matches_scipy(self, seed):
        A = random_sparse(12, 8, 0.3, seed)
        B = random_sparse(8, 10, 0.3, seed + 100)
        ours = spgemm_gustavson(A, B).toarray()
        theirs = (A @ B).toarray()
        assert np.array_equal(ours, theirs)

    def test_scipy_wrapper(self):
        A = random_sparse(5, 4, 0.5, 3)
        B = random_sparse(4, 6, 0.5, 4)
        assert np.array_equal(spgemm_scipy(A, B).toarray(), (A @ B).toarray())

    def test_dimension_mismatch(self):
        A = random_sparse(3, 4, 0.5, 0)
        B = random_sparse(5, 3, 0.5, 0)
        for fn in (spgemm_scipy, spgemm_gustavson, spgemm_upper_triangle):
            with pytest.raises(ValidationError):
                fn(A, B)

    def test_empty_matrices(self):
        A = sparse.csr_matrix((3, 4), dtype=np.int64)
        B = sparse.csr_matrix((4, 2), dtype=np.int64)
        assert spgemm_gustavson(A, B).nnz == 0
        square = sparse.csr_matrix((4, 4), dtype=np.int64)
        assert spgemm_upper_triangle(A, square).nnz == 0


class TestUpperTriangle:
    def test_matches_full_product_upper_part(self, paper_example):
        H = paper_example.incidence_matrix().astype(np.int64)
        full = (H.T @ H).toarray()
        ours = spgemm_upper_triangle(H.T, H).toarray()
        assert np.array_equal(ours, np.triu(full, k=1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_is_the_full_kernel_above_the_diagonal(self, seed):
        """Both kernels run one row loop: the upper arm's CSR arrays are the
        full arm's with every entry on or below the diagonal dropped."""
        H = random_sparse(10, 9, 0.35, seed)
        full = spgemm_gustavson(H.T, H)
        upper = spgemm_upper_triangle(H.T, H)
        expected = sparse.triu(full, k=1, format="csr").sorted_indices()
        assert np.array_equal(upper.indptr, expected.indptr)
        assert np.array_equal(upper.indices, expected.indices)
        assert np.array_equal(upper.data, expected.data)
        assert upper.data.dtype == full.data.dtype == np.int64

    def test_halves_the_stored_entries(self, community_hypergraph):
        H = community_hypergraph.incidence_matrix().astype(np.int64)
        full = spgemm_gustavson(H.T, H)
        upper = spgemm_upper_triangle(H.T, H)
        assert upper.nnz < full.nnz

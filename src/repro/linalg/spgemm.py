"""Sparse general matrix-matrix multiplication (SpGEMM) kernels.

The paper compares its hashmap algorithms against an SpGEMM-based pipeline:
compute ``L = H^T H`` with a state-of-the-art SpGEMM library, then filter
entries ``>= s``.  Two variants appear in Figure 11:

* ``SpGEMM+Filter`` — the full product followed by filtration;
* ``SpGEMM+Filter+Upper`` — a modified kernel that only materialises the
  upper-triangular part of the (symmetric) product.

We provide scipy's CSR product as the library baseline and a from-scratch
Gustavson row-wise SpGEMM (dense-accumulator per row) whose row loop can be
restricted to the upper triangle, mirroring the paper's modification.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.utils.validation import ValidationError


def spgemm_scipy(a: sparse.spmatrix, b: sparse.spmatrix) -> sparse.csr_matrix:
    """Compute ``A @ B`` with scipy's CSR SpGEMM (the library baseline)."""
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"inner dimensions do not match: {a.shape} @ {b.shape}"
        )
    return (sparse.csr_matrix(a) @ sparse.csr_matrix(b)).tocsr()


def _gustavson(
    a: sparse.spmatrix, b: sparse.spmatrix, dtype, upper: bool
) -> sparse.csr_matrix:
    """The Gustavson row loop both public kernels share.

    For each row ``i`` of ``A``: for each stored ``A[i, k]``, scatter
    ``A[i, k] * B[k, :]`` into a dense accumulator, skipping columns below
    ``i + 1`` when ``upper``; gather the touched columns at the end of the
    row.
    """
    A = sparse.csr_matrix(a).astype(dtype)
    B = sparse.csr_matrix(b).astype(dtype)
    if A.shape[1] != B.shape[0]:
        raise ValidationError(
            f"inner dimensions do not match: {A.shape} @ {B.shape}"
        )
    n_rows, n_cols = A.shape[0], B.shape[1]
    accumulator = np.zeros(n_cols, dtype=dtype)
    out_indptr = np.zeros(n_rows + 1, dtype=np.int64)
    out_indices: list[np.ndarray] = []
    out_data: list[np.ndarray] = []
    for i in range(n_rows):
        touched: list[int] = []
        lower_bound = i + 1 if upper else 0
        for ak in range(A.indptr[i], A.indptr[i + 1]):
            k = A.indices[ak]
            aik = A.data[ak]
            for bk in range(B.indptr[k], B.indptr[k + 1]):
                j = B.indices[bk]
                if j < lower_bound:
                    continue
                if accumulator[j] == 0:
                    touched.append(j)
                accumulator[j] += aik * B.data[bk]
        touched_arr = np.array(sorted(touched), dtype=np.int64)
        out_indices.append(touched_arr)
        out_data.append(accumulator[touched_arr].copy())
        accumulator[touched_arr] = 0
        out_indptr[i + 1] = out_indptr[i] + touched_arr.size
    indices = np.concatenate(out_indices) if out_indices else np.empty(0, dtype=np.int64)
    data = np.concatenate(out_data) if out_data else np.empty(0, dtype=dtype)
    return sparse.csr_matrix((data, indices, out_indptr), shape=(n_rows, n_cols))


def spgemm_gustavson(
    a: sparse.spmatrix, b: sparse.spmatrix, dtype=np.int64
) -> sparse.csr_matrix:
    """Row-wise Gustavson SpGEMM with a sparse accumulator per output row.

    Complexity is proportional to the number of multiply–add operations
    (FLOPs), independent of the output's density pattern — the classic
    algorithm the SpGEMM literature (and the paper's ``ikj`` loop
    ordering) builds on.
    """
    return _gustavson(a, b, dtype, upper=False)


def spgemm_upper_triangle(
    a: sparse.spmatrix, b: sparse.spmatrix, dtype=np.int64
) -> sparse.csr_matrix:
    """Gustavson SpGEMM restricted to the strict upper triangle of the product.

    Intended for symmetric products such as ``H^T H``: only entries with
    column index greater than the row index are accumulated and stored,
    halving the work — the paper's ``SpGEMM+Filter+Upper`` variant.
    """
    return _gustavson(a, b, dtype, upper=True)

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
    row.  The loop walks both operands as Python lists and accumulates in
    Python numbers; the output arrays are built once, in ``dtype``.
    """
    A = sparse.csr_matrix(a).astype(dtype)
    B = sparse.csr_matrix(b).astype(dtype)
    if A.shape[1] != B.shape[0]:
        raise ValidationError(
            f"inner dimensions do not match: {A.shape} @ {B.shape}"
        )
    n_rows, n_cols = A.shape[0], B.shape[1]
    a_indptr, a_indices, a_data = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    b_indptr, b_indices, b_data = B.indptr.tolist(), B.indices.tolist(), B.data.tolist()
    accumulator = [0] * n_cols
    out_indptr = [0]
    out_indices: list = []
    out_data: list = []
    for i in range(n_rows):
        touched: list[int] = []
        lower_bound = i + 1 if upper else 0
        a_start, a_stop = a_indptr[i], a_indptr[i + 1]
        for k, aik in zip(a_indices[a_start:a_stop], a_data[a_start:a_stop]):
            b_start, b_stop = b_indptr[k], b_indptr[k + 1]
            for j, bkj in zip(b_indices[b_start:b_stop], b_data[b_start:b_stop]):
                if j < lower_bound:
                    continue
                if accumulator[j] == 0:
                    touched.append(j)
                accumulator[j] += aik * bkj
        touched.sort()
        out_indices.extend(touched)
        out_data.extend([accumulator[j] for j in touched])
        for j in touched:
            accumulator[j] = 0
        out_indptr.append(len(out_indices))
    return sparse.csr_matrix(
        (
            np.array(out_data, dtype=dtype),
            np.array(out_indices, dtype=np.int64),
            np.array(out_indptr, dtype=np.int64),
        ),
        shape=(n_rows, n_cols),
    )


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

"""Eigenvalue helpers for spectral hypergraph analysis.

Thin, robust wrappers over :func:`scipy.sparse.linalg.eigsh` with a dense
fallback for small or ill-conditioned problems, so callers (algebraic
connectivity, spectral s-measures) never need to handle ARPACK quirks.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from repro.utils.validation import ValidationError

#: Below this order, just use dense eigendecomposition — it is faster and exact.
DENSE_THRESHOLD = 64


def _start_vector(n: int) -> np.ndarray:
    """Deterministic ARPACK starting vector.

    Without ``v0`` ARPACK draws a random start per call, making iterative
    eigenvalues (and any test or cached result built on them) vary run to
    run near the tolerance; a fixed seeded vector keeps them reproducible.
    """
    return np.random.default_rng(0).standard_normal(n)


def smallest_eigenvalues(matrix: sparse.spmatrix, k: int = 2) -> np.ndarray:
    """The ``k`` smallest eigenvalues of a symmetric matrix, ascending.

    Uses a dense solver for small matrices (or when ARPACK cannot converge)
    and shift-invert Lanczos otherwise.
    """
    mat = sparse.csr_matrix(matrix, dtype=np.float64)
    n = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"matrix must be square, got {mat.shape}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    k = min(k, n)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if n <= DENSE_THRESHOLD or k >= n - 1:
        eigs = np.linalg.eigvalsh(mat.toarray())
        return np.sort(eigs)[:k]
    try:
        eigs = splinalg.eigsh(
            mat,
            k=k,
            which="SM",
            return_eigenvectors=False,
            tol=1e-8,
            v0=_start_vector(n),
        )
        return np.sort(eigs)
    except (splinalg.ArpackNoConvergence, splinalg.ArpackError, RuntimeError):
        eigs = np.linalg.eigvalsh(mat.toarray())
        return np.sort(eigs)[:k]

"""Graph Laplacians and algebraic connectivity.

The paper's Figure 6 plots the *normalized algebraic connectivity* of the
s-line graphs of the condMat author–paper network: the second-smallest
eigenvalue of the normalized Laplacian ``L_norm = I − D^{−1/2} A D^{−1/2}``
(Fiedler value of the normalised spectrum), computed on the largest
connected component of each s-line graph.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.linalg.spectral import smallest_eigenvalues
from repro.utils.validation import ValidationError


def _check_square_symmetric(adjacency: sparse.spmatrix) -> sparse.csr_matrix:
    adj = sparse.csr_matrix(adjacency, dtype=np.float64)
    if adj.shape[0] != adj.shape[1]:
        raise ValidationError(f"adjacency matrix must be square, got {adj.shape}")
    asym = abs(adj - adj.T)
    if asym.nnz and asym.max() > 1e-9:
        raise ValidationError("adjacency matrix must be symmetric")
    return adj


def normalized_laplacian(adjacency: sparse.spmatrix) -> sparse.csr_matrix:
    """Normalized Laplacian ``I − D^{−1/2} A D^{−1/2}``.

    Vertices with degree zero contribute identity rows (their scaling factor
    is defined as 0, the convention used by scipy and networkx).
    """
    adj = _check_square_symmetric(adjacency)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv_sqrt = sparse.diags(inv_sqrt)
    n = adj.shape[0]
    return (sparse.identity(n, format="csr") - d_inv_sqrt @ adj @ d_inv_sqrt).tocsr()


def normalized_algebraic_connectivity(adjacency: sparse.spmatrix) -> float:
    """Second-smallest eigenvalue of the normalized Laplacian.

    This is the quantity on the y-axis of the paper's Figure 6; larger values
    indicate stronger connectivity of the (s-line) graph.
    """
    lap = normalized_laplacian(adjacency)
    if lap.shape[0] < 2:
        return 0.0
    eigs = smallest_eigenvalues(lap, k=2)
    return float(eigs[1])

"""Sparse linear-algebra substrate.

Provides the pieces of the paper's linear-algebraic view of s-line graphs:

* the weighted hyperedge adjacency ``L = H^T H`` and clique-expansion
  ``W = H H^T − D_V`` products (via scipy and via a from-scratch Gustavson
  row-wise SpGEMM, including an upper-triangular-only variant);
* the normalized graph Laplacian and the normalized algebraic
  connectivity used in the paper's Figure 6.
"""

from repro.linalg.spgemm import spgemm_gustavson, spgemm_upper_triangle, spgemm_scipy
from repro.linalg.laplacian import normalized_laplacian, normalized_algebraic_connectivity
from repro.linalg.spectral import smallest_eigenvalues

__all__ = [
    "spgemm_gustavson",
    "spgemm_upper_triangle",
    "spgemm_scipy",
    "normalized_laplacian",
    "normalized_algebraic_connectivity",
    "smallest_eigenvalues",
]

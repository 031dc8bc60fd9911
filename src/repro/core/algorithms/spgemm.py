"""SpGEMM-based s-line-graph baselines (the paper's Figure 11 comparison).

``SpGEMM+Filter``: compute the full weighted hyperedge adjacency matrix
``L = H^T H`` with a general sparse matrix product, then threshold the
off-diagonal entries at ``s``.

``SpGEMM+Filter+Upper``: a modified product that only materialises the
strict upper triangle of the symmetric result before thresholding, halving
the multiply–add work (the paper's modification of the SpGEMM library).

Both variants must first materialise the product matrix — the very cost the
hashmap algorithms avoid — so they serve as the "too general" baseline in
the evaluation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse

from repro.core.algorithms.base import AlgorithmResult, build_result
from repro.hypergraph.hypergraph import Hypergraph
from repro.linalg.spgemm import spgemm_scipy, spgemm_upper_triangle
from repro.parallel.workload import WorkerCounters
from repro.utils.validation import check_s_value


def _pairs_from_upper(matrix: sparse.csr_matrix, s: int) -> List[Tuple[int, int, int]]:
    """Extract ``(i, j, value)`` triples with ``i < j`` and ``value >= s``."""
    coo = sparse.coo_matrix(matrix)
    mask = (coo.row < coo.col) & (coo.data >= s)
    return [
        (int(i), int(j), int(v))
        for i, j, v in zip(coo.row[mask], coo.col[mask], coo.data[mask])
    ]


def s_line_graph_spgemm(h: Hypergraph, s: int, kernel: str = "scipy") -> AlgorithmResult:
    """``SpGEMM+Filter``: full ``H^T H`` product then threshold at ``s``.

    Parameters
    ----------
    kernel:
        ``"scipy"`` (default) uses scipy's compiled CSR product — the role of
        the optimised SpGEMM library in the paper; ``"gustavson"`` uses the
        pure-Python Gustavson kernel from :mod:`repro.linalg.spgemm`, which
        keeps the comparison against the (equally pure-Python) hashmap
        algorithms on the same execution substrate.

    The workload counter records the number of stored entries of the product
    matrix that had to be materialised before filtering.
    """
    s = check_s_value(s)
    H = h.incidence_matrix().astype(np.int64)
    if kernel == "scipy":
        product = spgemm_scipy(H.T, H)
    elif kernel == "gustavson":
        from repro.linalg.spgemm import spgemm_gustavson

        product = spgemm_gustavson(H.T, H)
    else:
        raise ValueError(f"unknown SpGEMM kernel {kernel!r}")
    pairs = _pairs_from_upper(product, s)
    counters = WorkerCounters(
        worker_id=0,
        edges_processed=h.num_edges,
        wedges_visited=int(product.nnz),
        line_edges_emitted=len(pairs),
    )
    return build_result(h, s, pairs, [counters], algorithm="spgemm")


def s_line_graph_spgemm_upper(h: Hypergraph, s: int) -> AlgorithmResult:
    """``SpGEMM+Filter+Upper``: upper-triangular Gustavson product then threshold.

    Mirrors the paper's modification of the SpGEMM library: exploit the
    symmetry of ``H^T H`` by only accumulating entries with ``j > i``.
    """
    s = check_s_value(s)
    H = h.incidence_matrix().astype(np.int64)
    product = spgemm_upper_triangle(H.T, H)
    pairs = _pairs_from_upper(product, s)
    counters = WorkerCounters(
        worker_id=0,
        edges_processed=h.num_edges,
        wedges_visited=int(product.nnz),
        line_edges_emitted=len(pairs),
    )
    return build_result(h, s, pairs, [counters], algorithm="spgemm_upper")

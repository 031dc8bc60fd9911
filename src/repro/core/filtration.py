"""Boolean filtration of weighted overlap structures (Section II-B).

Given the weighted hyperedge adjacency matrix ``L = H^T H`` (or any
collection of weighted overlap pairs), the s-line graph is obtained by the
Boolean filtration ``L_s[i, j] = 1 iff L[i, j] >= s`` with the diagonal
removed.  These helpers implement the filtration both on scipy matrices and
on weighted edge lists, and are reused by the ensemble algorithm and the
SpGEMM baselines.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np
from scipy import sparse

from repro.core.slinegraph import SLineGraph
from repro.utils.validation import check_s_value


def filtration_matrix(weighted: sparse.spmatrix, s: int) -> sparse.csr_matrix:
    """Boolean filtration of a weighted adjacency matrix at threshold ``s``.

    Off-diagonal entries ``>= s`` become 1; everything else (including the
    diagonal, which holds edge sizes in ``H^T H``) becomes 0.
    """
    s = check_s_value(s)
    coo = sparse.coo_matrix(weighted)
    mask = (coo.row != coo.col) & (coo.data >= s)
    out = sparse.coo_matrix(
        (np.ones(int(mask.sum()), dtype=np.int8), (coo.row[mask], coo.col[mask])),
        shape=coo.shape,
    )
    return out.tocsr()


def filter_weighted_edges(
    pairs: Iterable[Tuple[int, int, int]],
    s: int,
    num_hyperedges: int,
    active_vertices: np.ndarray | None = None,
) -> SLineGraph:
    """Filter ``(i, j, overlap)`` triples at threshold ``s`` into an :class:`SLineGraph`."""
    s = check_s_value(s)
    kept: List[Tuple[int, int, int]] = [
        (int(i), int(j), int(w)) for i, j, w in pairs if int(w) >= s
    ]
    return SLineGraph.from_weighted_pairs(
        s=s, pairs=kept, num_hyperedges=num_hyperedges, active_vertices=active_vertices
    )


def filter_weighted_arrays(
    edges: np.ndarray,
    weights: np.ndarray,
    s: int,
    num_hyperedges: int,
    active_vertices: np.ndarray | None = None,
) -> SLineGraph:
    """Vectorised filtration of a ``(k, 2)`` pair array at threshold ``s``.

    The array counterpart of :func:`filter_weighted_edges`, used by the
    :class:`repro.engine.OverlapIndex` hot path: given all weighted overlap
    pairs as flat arrays, keep those with ``weight >= s`` without a Python
    loop.
    """
    s = check_s_value(s)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64)
    if weights.size != edges.shape[0]:
        raise ValueError("weights length must equal the number of pairs")
    mask = weights >= s
    if not mask.all():  # an index's ``pairs_at_least(s)`` slice is already the cut
        edges, weights = edges[mask], weights[mask]
    return SLineGraph(
        s=s,
        edges=edges,
        weights=weights,
        num_hyperedges=num_hyperedges,
        active_vertices=active_vertices,
    )


def line_graph_from_filtration(h, s: int, index=None) -> SLineGraph:
    """Build ``L_s(H)`` directly from the filtration of ``L = H^T H``.

    A convenience wrapper used in tests as yet another independent oracle.
    When an :class:`repro.engine.OverlapIndex` built from ``h`` is passed as
    ``index``, the filtration is delegated to its precomputed weight-sorted
    pair store instead of re-multiplying ``H^T H``.
    """
    from repro.core.algorithms.base import active_hyperedges
    from repro.hypergraph.incidence import line_graph_weight_matrix

    s = check_s_value(s)
    if index is not None:
        if index.num_hyperedges != h.num_edges or not np.array_equal(
            index.edge_sizes, h.edge_sizes()
        ):
            raise ValueError(
                "index does not describe this hypergraph (hyperedge count or "
                "sizes differ)"
            )
        return index.line_graph(s)
    L = line_graph_weight_matrix(h)
    coo = sparse.coo_matrix(L)
    mask = (coo.row < coo.col) & (coo.data >= s)
    pairs = [
        (int(i), int(j), int(v))
        for i, j, v in zip(coo.row[mask], coo.col[mask], coo.data[mask])
    ]
    return SLineGraph.from_weighted_pairs(
        s=s,
        pairs=pairs,
        num_hyperedges=h.num_edges,
        active_vertices=active_hyperedges(h, s),
    )

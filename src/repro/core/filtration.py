"""Boolean filtration of weighted overlap structures (Section II-B).

Given the weighted hyperedge adjacency matrix ``L = H^T H`` (or any
collection of weighted overlap pairs), the s-line graph is obtained by the
Boolean filtration ``L_s[i, j] = 1 iff L[i, j] >= s`` with the diagonal
removed.  :func:`filter_weighted_arrays` applies it to the overlap index's
pair arrays; :func:`line_graph_from_filtration` applies it to ``H^T H``
itself, as an independent test oracle.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.slinegraph import SLineGraph
from repro.utils.validation import check_s_value


def filter_weighted_arrays(
    edges: np.ndarray,
    weights: np.ndarray,
    s: int,
    num_hyperedges: int,
    active_vertices: np.ndarray | None = None,
) -> SLineGraph:
    """Vectorised filtration of a ``(k, 2)`` pair array at threshold ``s``.

    The overlap index's hot path: given all weighted overlap pairs as flat
    arrays, keep those with ``weight >= s`` without a Python loop.
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


def line_graph_from_filtration(h, s: int) -> SLineGraph:
    """Build ``L_s(H)`` directly from the filtration of ``L = H^T H``.

    An independent oracle for the tests: its pairs come from one sparse
    product and a mask, not from the Stage-3 wedge kernels or the overlap
    index it is compared against.
    """
    from repro.core.algorithms.base import active_hyperedges
    from repro.hypergraph.incidence import line_graph_weight_matrix

    s = check_s_value(s)
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

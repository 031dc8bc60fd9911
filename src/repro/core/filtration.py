"""Boolean filtration of the weighted overlap matrix (Section II-B).

Given the weighted hyperedge adjacency matrix ``L = H^T H``, the s-line
graph is obtained by the Boolean filtration ``L_s[i, j] = 1 iff
L[i, j] >= s`` with the diagonal removed.  :func:`line_graph_from_filtration`
applies it to ``H^T H`` itself, as an independent test oracle; the overlap
index applies the same cut to its weight-sorted pairs by binary search
(:meth:`repro.engine.index.OverlapIndex.line_graph`).
"""

from __future__ import annotations

from scipy import sparse

from repro.core.slinegraph import SLineGraph
from repro.utils.validation import check_s_value


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

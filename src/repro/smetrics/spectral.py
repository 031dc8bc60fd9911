"""Spectral s-measure: normalized algebraic connectivity of s-line graphs.

The paper's Figure 6 plots the normalized algebraic connectivity — the
second-smallest eigenvalue of the normalized Laplacian — of the s-line
graphs of the condMat author–paper network for ``s = 1..16``, computed on
the largest connected component of each s-line graph.  A dip followed by a
sharp rise reveals that authors sharing many papers form densely connected
cores.  :func:`repro.apps.authors.coauthorship_connectivity` sweeps it over
a range of ``s``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.graph.connected_components import connected_components, component_sizes
from repro.hypergraph.hypergraph import Hypergraph
from repro.linalg.laplacian import normalized_algebraic_connectivity
from repro.smetrics.base import line_graph_and_mapping


def s_normalized_algebraic_connectivity(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> float:
    """Normalized algebraic connectivity of the largest s-connected component.

    Returns 0.0 when the s-line graph has no component with at least two
    vertices (e.g. ``s`` larger than every pairwise overlap).
    """
    graph, _, _ = line_graph_and_mapping(h, s, line_graph)
    if graph.num_vertices == 0:
        return 0.0
    labels = connected_components(graph)
    members = np.flatnonzero(labels == int(np.argmax(component_sizes(labels))))
    if members.size < 2:
        return 0.0
    sub, _ = graph.subgraph(members)
    return normalized_algebraic_connectivity(sub.adjacency_matrix(weighted=False))

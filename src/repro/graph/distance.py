"""Distance-based measures: eccentricity, diameter, closeness centrality.

These back the paper's s-distance, s-eccentricity and s-closeness measures:
the s-distance between hyperedges is the hop distance between the
corresponding vertices of the s-line graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import UNREACHABLE, bfs_distances
from repro.graph.graph import Graph


def eccentricity(graph: Graph, within_component: bool = True) -> np.ndarray:
    """Eccentricity of every vertex.

    With ``within_component=True`` (default) unreachable pairs are ignored,
    so the eccentricity of a vertex is taken within its connected component
    (the convention the paper uses when reporting per-component s-measures).
    Isolated vertices get eccentricity 0.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.int64)
    for source in range(n):
        dist = bfs_distances(graph, source)
        reachable = dist[dist >= 0]
        if not within_component and np.any(dist == UNREACHABLE):
            out[source] = np.iinfo(np.int64).max
        else:
            out[source] = int(reachable.max()) if reachable.size else 0
    return out


def diameter(graph: Graph) -> int:
    """Largest eccentricity across vertices (per-component convention)."""
    if graph.num_vertices == 0:
        return 0
    return int(eccentricity(graph).max())


def closeness_centrality(graph: Graph, wf_improved: bool = True) -> np.ndarray:
    """Closeness centrality of every vertex (networkx-compatible).

    ``wf_improved`` applies the Wasserman–Faust correction for disconnected
    graphs: the score is scaled by the fraction of vertices reachable.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.float64)
    for source in range(n):
        dist = bfs_distances(graph, source)
        reachable = dist > 0
        total = float(dist[reachable].sum())
        count = int(np.count_nonzero(reachable))
        if total > 0:
            score = count / total
            if wf_improved and n > 1:
                score *= count / (n - 1)
            out[source] = score
    return out

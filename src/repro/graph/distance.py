"""Distance-based measures: eccentricity, diameter, closeness centrality.

These back the paper's s-distance, s-eccentricity and s-closeness measures:
the s-distance between hyperedges is the hop distance between the
corresponding vertices of the s-line graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import bfs_distances
from repro.graph.graph import Graph


def eccentricity(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex within its connected component.

    Unreachable pairs are ignored (the convention the paper uses when
    reporting per-component s-measures); isolated vertices get 0.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.int64)
    for source in range(n):
        # Unreachable vertices sit at −1, below the source's own 0.
        out[source] = int(bfs_distances(graph, source).max())
    return out


def diameter(graph: Graph) -> int:
    """Largest eccentricity across vertices (per-component convention)."""
    if graph.num_vertices == 0:
        return 0
    return int(eccentricity(graph).max())


def closeness_centrality(graph: Graph) -> np.ndarray:
    """Closeness centrality of every vertex (networkx-compatible).

    The Wasserman–Faust correction for disconnected graphs applies: the
    score is scaled by the fraction of vertices reachable.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.float64)
    for source in range(n):
        dist = bfs_distances(graph, source)
        reachable = dist > 0
        total = float(dist[reachable].sum())
        count = int(np.count_nonzero(reachable))
        if total > 0:  # so some other vertex is reachable and n > 1
            out[source] = (count / total) * (count / (n - 1))
    return out

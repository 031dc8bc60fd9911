"""Distance-based measures: eccentricity, diameter, closeness centrality.

These back the paper's s-distance, s-eccentricity and s-closeness measures:
the s-distance between hyperedges is the hop distance between the
corresponding vertices of the s-line graph.  Each measure is a column
reduction of the hop distances :func:`repro.graph.bfs.levels` finds from
one block of sources at a time; the dense ``n × n`` distance matrix is
never built.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import all_sources
from repro.graph.graph import Graph


def eccentricity(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex within its connected component.

    Unreachable pairs are ignored (the convention the paper uses when
    reporting per-component s-measures); isolated vertices get 0.
    """
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    for sources, dist, _, _ in all_sources(graph.adjacency_matrix()):
        # Unreachable vertices sit at −1, below the source's own 0.
        out[sources] = dist.max(axis=0)
    return out


def diameter(graph: Graph) -> int:
    """Largest eccentricity across vertices (per-component convention)."""
    return int(eccentricity(graph).max(initial=0))


def closeness_centrality(graph: Graph) -> np.ndarray:
    """Closeness centrality of every vertex (networkx-compatible).

    The Wasserman–Faust correction for disconnected graphs applies: the
    score is scaled by the fraction of vertices reachable.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.float64)
    for sources, dist, _, _ in all_sources(graph.adjacency_matrix()):
        count = np.count_nonzero(dist > 0, axis=0)
        total = np.maximum(dist, 0).sum(axis=0, dtype=np.int64)
        some = total > 0  # so some other vertex is reachable and n > 1
        out[sources[some]] = (count[some] / total[some]) * (count[some] / (n - 1))
    return out

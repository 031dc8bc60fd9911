"""Distance-based measures: eccentricity, diameter, closeness centrality.

These back the paper's s-distance, s-eccentricity and s-closeness measures:
the s-distance between hyperedges is the hop distance between the
corresponding vertices of the s-line graph.  Each measure is a row
reduction of the hop distances from one block of sources at a time; the
dense ``n × n`` distance matrix is never built.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.bfs import hops, source_blocks
from repro.graph.graph import Graph


def _distance_blocks(graph: Graph) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(sources, hop distances from each source)`` per source block."""
    adjacency = graph.adjacency_matrix(weighted=False)
    for sources in source_blocks(graph.num_vertices):
        yield sources, hops(adjacency, sources)


def eccentricity(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex within its connected component.

    Unreachable pairs are ignored (the convention the paper uses when
    reporting per-component s-measures); isolated vertices get 0.
    """
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    for sources, dist in _distance_blocks(graph):
        # Unreachable vertices sit at −1, below the source's own 0.
        out[sources] = dist.max(axis=1)
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
    for sources, dist in _distance_blocks(graph):
        count = np.count_nonzero(dist > 0, axis=1)
        total = np.maximum(dist, 0).sum(axis=1)
        some = total > 0  # so some other vertex is reachable and n > 1
        out[sources[some]] = (count[some] / total[some]) * (count[some] / (n - 1))
    return out

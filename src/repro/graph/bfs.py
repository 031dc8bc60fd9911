"""Breadth-first search on CSR graphs.

Unweighted BFS is the workhorse behind s-distance, s-eccentricity,
s-closeness and s-betweenness: the s-line graph's edges are unweighted for
distance purposes (an s-walk step is one hop regardless of overlap size).
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np
from scipy.sparse import csgraph

from repro.graph.graph import Graph

#: Sentinel distance for unreachable vertices.
UNREACHABLE = -1


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 when unreachable)."""
    if source < 0 or source >= graph.num_vertices:  # scipy would wrap a negative one
        raise IndexError(f"source {source} out of range")
    hops = csgraph.shortest_path(graph.structure(), unweighted=True, indices=source)
    hops[np.isinf(hops)] = UNREACHABLE
    return hops.astype(np.int64)


def bfs_tree(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS distances and predecessors (−1 for the source and unreachable vertices)."""
    dist = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int64)
    pred = np.full(graph.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            v = int(v)
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                pred[v] = u
                frontier.append(v)
    return dist, pred

"""Brandes betweenness centrality (unweighted).

s-betweenness centrality of a hyperedge (Section II-B of the paper) is the
ordinary betweenness centrality of the corresponding vertex in the s-line
graph, so the standard Brandes algorithm applies: one BFS plus a dependency
back-propagation per source, O(V·E) total for unweighted graphs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.graph import Graph


def betweenness_centrality(graph: Graph) -> np.ndarray:
    """Normalized betweenness centrality of every vertex (Brandes' algorithm).

    Edge weights are ignored (hops count as 1) and the scores are divided by
    the number of vertex pairs ``(n−1)(n−2)/2``, matching
    :func:`networkx.betweenness_centrality`.
    """
    n = graph.num_vertices
    centrality = np.zeros(n, dtype=np.float64)
    for source in range(n):
        # Single-source shortest paths (BFS) with path counting.
        sigma = np.zeros(n, dtype=np.float64)
        sigma[source] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        predecessors: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            order.append(u)
            du = dist[u]
            for v in graph.neighbors(u):
                v = int(v)
                if dist[v] == -1:
                    dist[v] = du + 1
                    frontier.append(v)
                if dist[v] == du + 1:
                    sigma[v] += sigma[u]
                    predecessors[v].append(u)
        # Dependency accumulation in reverse BFS order.
        delta = np.zeros(n, dtype=np.float64)
        for v in reversed(order):
            for u in predecessors[v]:
                delta[u] += (sigma[u] / sigma[v]) * (1.0 + delta[v])
            if v != source:
                centrality[v] += delta[v]
    # Each undirected pair was counted from both endpoints.
    centrality /= 2.0
    centrality *= 2.0 / ((n - 1) * (n - 2)) if n > 2 else 1.0
    return centrality

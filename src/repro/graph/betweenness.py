"""Brandes betweenness centrality (unweighted), a block of sources at a time.

s-betweenness centrality of a hyperedge (Section II-B of the paper) is the
ordinary betweenness centrality of the corresponding vertex in the s-line
graph, so Brandes' algorithm applies.  Its forward pass is the BFS every
distance measure runs (:func:`repro.graph.bfs.levels`, which carries the
path counts ``σ``); its backward pass walks the same levels in reverse over
the same block of sources, each level one sparse × dense product with the
adjacency: level ``l − 1`` gathers dependencies ``(1 + δ) / σ`` from level
``l``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import all_sources
from repro.graph.graph import Graph


def betweenness_centrality(graph: Graph) -> np.ndarray:
    """Normalized betweenness centrality of every vertex.

    Every hop counts as 1 and the scores are divided by
    the number of vertex pairs ``(n−1)(n−2)/2``, matching
    :func:`networkx.betweenness_centrality`.
    """
    n = graph.num_vertices
    adjacency = graph.adjacency_matrix()
    centrality = np.zeros(n, dtype=np.float64)
    for sources, dist, sigma, depth in all_sources(adjacency):
        delta = np.zeros(dist.shape, dtype=np.float64)
        for level in range(depth, 0, -1):
            pull = np.divide(
                1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == level
            )
            delta += np.where(dist == level - 1, sigma * (adjacency @ pull), 0.0)
        delta[sources, np.arange(sources.size)] = 0.0
        centrality += delta.sum(axis=1)
    # Each undirected pair was counted from both endpoints.
    centrality /= 2.0
    centrality *= 2.0 / ((n - 1) * (n - 2)) if n > 2 else 1.0
    return centrality

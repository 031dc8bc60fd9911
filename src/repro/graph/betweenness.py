"""Brandes betweenness centrality (unweighted), a block of sources at a time.

s-betweenness centrality of a hyperedge (Section II-B of the paper) is the
ordinary betweenness centrality of the corresponding vertex in the s-line
graph, so Brandes' algorithm applies.  Both of its passes run one BFS level
at a time over a block of sources, each level one sparse × dense product
with the adjacency (the SpGEMM form of the paper's Fig 11): forward, path
counts ``σ`` reach the next level; backward, level ``l − 1`` gathers
dependencies ``(1 + δ) / σ`` from level ``l``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import UNREACHABLE, source_blocks
from repro.graph.graph import Graph


def betweenness_centrality(graph: Graph) -> np.ndarray:
    """Normalized betweenness centrality of every vertex.

    Edge weights are ignored (hops count as 1) and the scores are divided by
    the number of vertex pairs ``(n−1)(n−2)/2``, matching
    :func:`networkx.betweenness_centrality`.
    """
    n = graph.num_vertices
    adjacency = graph.adjacency_matrix(weighted=False)
    centrality = np.zeros(n, dtype=np.float64)
    for sources in source_blocks(n):
        # Column j of every (n, block) array belongs to source sources[j].
        at_source = (sources, np.arange(sources.size))
        dist = np.full((n, sources.size), UNREACHABLE, dtype=np.int32)
        dist[at_source] = 0
        sigma = np.zeros(dist.shape, dtype=np.float64)
        sigma[at_source] = 1.0
        frontier, depth = sigma.copy(), 0
        while True:
            reached = adjacency @ frontier
            new = (reached > 0) & (dist == UNREACHABLE)
            if not new.any():
                break
            depth += 1
            dist[new] = depth
            frontier = np.where(new, reached, 0.0)
            sigma += frontier
        delta = np.zeros(dist.shape, dtype=np.float64)
        for level in range(depth, 0, -1):
            pull = np.divide(
                1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == level
            )
            delta += np.where(dist == level - 1, sigma * (adjacency @ pull), 0.0)
        delta[at_source] = 0.0
        centrality += delta.sum(axis=1)
    # Each undirected pair was counted from both endpoints.
    centrality /= 2.0
    centrality *= 2.0 / ((n - 1) * (n - 2)) if n > 2 else 1.0
    return centrality

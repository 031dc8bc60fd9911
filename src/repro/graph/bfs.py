"""Breadth-first search on CSR graphs: one level loop for every measure.

Unweighted BFS is the workhorse behind s-distance, s-eccentricity,
s-closeness and s-betweenness: the s-line graph's edges are unweighted for
distance purposes (an s-walk step is one hop regardless of overlap size).
:func:`levels` is the one traversal: a block of sources walked one level at
a time, each level one sparse × dense product with the adjacency (BFS in
the language of linear algebra, the SpGEMM form of the paper's Fig 11).
It carries the shortest-path counts ``σ`` that Brandes betweenness needs,
and its distances are the ones closeness and eccentricity reduce.  The
all-sources measures run it a block of :data:`BLOCK` sources at a time.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from scipy import sparse

from repro.graph.graph import Graph

#: Sentinel distance for unreachable vertices.
UNREACHABLE = -1
#: Sources per block of an all-sources traversal: what stays resident is a
#: few dense distance or path-count arrays of ``BLOCK × n`` entries.
BLOCK = 256


def source_blocks(num_vertices: int) -> Iterator[np.ndarray]:
    """Consecutive ascending blocks of at most :data:`BLOCK` source IDs."""
    for start in range(0, num_vertices, BLOCK):
        yield np.arange(start, min(start + BLOCK, num_vertices))


def levels(
    adjacency: sparse.csr_matrix, sources: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Level-synchronous BFS from a block of ``sources`` over the 0/1
    ``adjacency``.

    Returns ``(dist, sigma, depth)``: column ``j`` of the ``(n, block)``
    arrays belongs to ``sources[j]``.  ``dist`` holds int32 hop counts
    (:data:`UNREACHABLE` where no path exists), ``sigma`` the float64 number
    of shortest paths, and ``depth`` is the deepest level any source reached.
    """
    at_source = (sources, np.arange(sources.size))
    dist = np.full((adjacency.shape[0], sources.size), UNREACHABLE, dtype=np.int32)
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
    return dist, sigma, depth


def all_sources(
    adjacency: sparse.csr_matrix,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """``(sources, dist, sigma, depth)`` of :func:`levels` per source block:
    one adjacency serves every source."""
    for sources in source_blocks(adjacency.shape[0]):
        yield (sources, *levels(adjacency, sources))


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 when unreachable)."""
    if source < 0 or source >= graph.num_vertices:  # numpy would wrap a negative one
        raise IndexError(f"source {source} out of range")
    dist, _, _ = levels(graph.adjacency_matrix(), np.array([source]))
    return dist[:, 0].astype(np.int64)

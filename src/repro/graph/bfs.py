"""Breadth-first search on CSR graphs.

Unweighted BFS is the workhorse behind s-distance, s-eccentricity,
s-closeness and s-betweenness: the s-line graph's edges are unweighted for
distance purposes (an s-walk step is one hop regardless of overlap size).
The all-sources measures run it a block of :data:`BLOCK` sources at a time.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

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


def hops(adjacency: sparse.csr_matrix, sources: int | np.ndarray) -> np.ndarray:
    """Hop distances from ``sources`` (one row each) over an unweighted
    ``adjacency``, −1 where unreachable."""
    out = csgraph.shortest_path(adjacency, unweighted=True, indices=sources)
    out[np.isinf(out)] = UNREACHABLE
    return out.astype(np.int64)


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 when unreachable)."""
    if source < 0 or source >= graph.num_vertices:  # scipy would wrap a negative one
        raise IndexError(f"source {source} out of range")
    return hops(graph.adjacency_matrix(weighted=False), source)

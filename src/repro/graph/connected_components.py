"""Connected components: a linear sweep and label-propagation (LPCC).

The paper's Table V times a Label-Propagation Connected Components run on
the s-line graphs (s=1 clique expansion versus s=8), and Table I includes an
"s-connected components" stage.  Both flavours are provided, both in arrays:

* :func:`connected_components` — one linear-time, deterministic sweep
  (``scipy.sparse.csgraph`` over the graph's unweighted adjacency);
* :func:`label_propagation_components` — iterative min-label propagation
  (the classic data-parallel LPCC formulation used by Hygra/MESH), one
  vectorised gather-and-reduce over every edge per round, which converges
  to the same labels but whose cost is rounds × edges.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph

from repro.graph.graph import Graph


def connected_components(graph: Graph) -> np.ndarray:
    """Component label of every vertex, numbered by each component's
    smallest vertex (0-based).

    On the symmetric adjacency of an undirected graph the strong components
    are the components, and the directed mode skips the transpose scipy's
    undirected mode builds first.
    """
    _, labels = csgraph.connected_components(
        graph.adjacency_matrix(weighted=False), directed=True, connection="strong"
    )
    return by_smallest_vertex(labels)


def by_smallest_vertex(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered ``0, 1, ...`` in order of each component's smallest
    vertex: the order a sweep over the vertices discovers components in.

    Any labelling works as input, gaps included; O(n), no sort.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return labels
    positions = np.arange(labels.size)
    first = np.full(int(labels.max()) + 1, labels.size, dtype=np.int64)
    np.minimum.at(first, labels, positions)
    smallest = first[labels]  # each vertex's component, named by its smallest vertex
    return (np.cumsum(smallest == positions) - 1)[smallest]


def label_propagation_components(graph: Graph) -> np.ndarray:
    """Connected components by iterative minimum-label propagation (LPCC).

    Every vertex starts with its own ID as label; in each round every vertex
    adopts the minimum label in its closed neighbourhood (one
    ``np.minimum.reduceat`` over the CSR's non-empty rows); iteration stops
    when no label changes.  Labels are then compacted to 0-based component
    IDs in order of each component's smallest vertex, which is
    :func:`connected_components`' order.
    """
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    rows = np.flatnonzero(np.diff(graph.indptr))
    while rows.size:
        lowest = np.minimum.reduceat(labels[graph.indices], graph.indptr[rows])
        lower = lowest < labels[rows]
        if not lower.any():
            break
        labels[rows[lower]] = lowest[lower]
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Size of each component given a label array."""
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.bincount(labels.astype(np.int64))


def num_components(labels: np.ndarray) -> int:
    """Number of components given a label array (labels are ``0..k-1``)."""
    return int(labels.max()) + 1 if labels.size else 0

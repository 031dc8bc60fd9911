"""Connected components: a linear sweep and label-propagation (LPCC).

The paper's Table V times a Label-Propagation Connected Components run on
the s-line graphs (s=1 clique expansion versus s=8), and Table I includes an
"s-connected components" stage.  Both flavours are provided:

* :func:`connected_components` — one linear-time, deterministic sweep
  (``scipy.sparse.csgraph`` over the graph's CSR);
* :func:`label_propagation_components` — iterative min-label propagation
  (the classic data-parallel LPCC formulation used by Hygra/MESH), which
  converges to the same partition but whose cost is rounds × edges.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph

from repro.graph.graph import Graph


def connected_components(graph: Graph) -> np.ndarray:
    """Component label of every vertex (labels are 0-based, in discovery order)."""
    _, labels = csgraph.connected_components(graph.structure(), directed=False)
    return labels.astype(np.int64)


def label_propagation_components(graph: Graph) -> np.ndarray:
    """Connected components by iterative minimum-label propagation (LPCC).

    Every vertex starts with its own ID as label; in each round every vertex
    adopts the minimum label in its closed neighbourhood; iteration stops
    when no label changes.  Labels are then compacted to 0-based component
    IDs.
    """
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    if graph.num_vertices == 0:
        return labels
    changed = True
    while changed:
        changed = False
        # Gather the minimum neighbour label per vertex (vectorised gather/scatter).
        new_labels = labels.copy()
        for u in range(graph.num_vertices):
            nbrs = graph.neighbors(u)
            if nbrs.size:
                candidate = min(int(labels[nbrs].min()), int(labels[u]))
                if candidate < new_labels[u]:
                    new_labels[u] = candidate
                    changed = True
        labels = new_labels
    # Compact labels to 0..k-1 (deterministic order by representative ID).
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

"""Array kernels that carry cached results across one incremental update.

The engine journals every ``add_hyperedge`` / ``remove_hyperedge`` as an
:class:`Update` — the edge's ID, its size and its *overlap row* (the
hyperedges it shares a vertex with, and how many) — and, on a miss, brings
a cached ancestor forward through the journal instead of recomputing it.
Each kernel here is one such step for one kind of cached value:

* :func:`line_graph` — canonical ``L_s`` pairs: an add inserts the row's
  pairs, a remove masks them out;
* :func:`squeezed` — the Stage-4 CSR graph and its ID mapping: an add
  appends one vertex, a remove deletes one row and column;
* :func:`component_labels` — connected-component labels under adds: the
  new vertex merges its neighbours' components.

Contract: a kernel's result is **byte for byte** what the from-scratch
path (``index.line_graph`` → ``squeeze`` → ``to_graph`` → metric) returns
on the updated hypergraph — same values, dtypes, shapes and C order — or
the kernel returns ``None`` and the caller recomputes.  Inputs are never
written to (they are shared, read-only cache values); arrays an update
leaves unchanged are shared with the input, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.graph.graph import Graph
from repro.hypergraph.preprocessing import SqueezeResult


@dataclass(frozen=True, eq=False)
class Update:
    """One journalled update: which hypergraph it turned into which, and the
    overlap row of the hyperedge it added or removed."""

    #: Hypergraph fingerprints on either side of the update.
    before: str
    after: str
    #: True for ``add_hyperedge``, False for ``remove_hyperedge``.
    added: bool
    edge_id: int
    #: ``|e|`` — of the new edge, or of the removed one before its removal.
    #: The edge is a vertex of ``L_s`` for ``s <= size`` only.
    size: int
    #: Hyperedges sharing a vertex with ``e``, ascending by ID, and the
    #: shared-vertex counts (``overlap_counts_for_members`` output).
    row_ids: np.ndarray
    row_weights: np.ndarray

    def row(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """The row cut at ``s``: ``e``'s neighbours in ``L_s`` and the weights."""
        keep = self.row_weights >= s
        return self.row_ids[keep], self.row_weights[keep]


def shifted_indptr(indptr: np.ndarray, rows: np.ndarray, step: int) -> np.ndarray:
    """``indptr`` after every row in ``rows`` grew (or shrank) by ``step`` entries."""
    shifted = indptr.copy()
    shifted[1:] += step * np.cumsum(np.bincount(rows, minlength=indptr.size - 1))
    return shifted


def line_graph(graph: SLineGraph, update: Update) -> SLineGraph:
    """``L_s`` after ``update``, from ``L_s`` before it.

    A new hyperedge has the largest ID, so it is the ``hi`` of each of its
    pairs and pair ``(p, new)`` lands at the end of ``p``'s run in the
    (lo, hi) order.  The insert runs on the flattened pairs: one 1-D
    ``np.insert`` is five times cheaper than the ``axis=0`` form.
    """
    s, edge_id = graph.s, update.edge_id
    neighbours, row_weights = update.row(s)
    edges, weights = graph.edges, graph.weights
    if neighbours.size and update.added:
        at = np.searchsorted(edges[:, 0], neighbours, side="right")
        pairs = np.column_stack([neighbours, np.full(neighbours.size, edge_id)])
        edges = np.insert(
            edges.reshape(-1), np.repeat(2 * at, 2), pairs.reshape(-1)
        ).reshape(-1, 2)
        weights = np.insert(weights, at, row_weights)
    elif neighbours.size:
        keep = (edges[:, 0] != edge_id) & (edges[:, 1] != edge_id)
        edges, weights = edges.compress(keep, axis=0), weights.compress(keep)
    active = graph.active_vertices
    if update.size >= s:  # the edge joins (or leaves) the vertex set E_s
        if update.added:
            active = np.append(active, edge_id)
        else:
            active = np.delete(active, np.searchsorted(active, edge_id))
    num_hyperedges = edge_id + 1 if update.added else graph.num_hyperedges
    return SLineGraph.from_canonical(s, edges, weights, num_hyperedges, active)


def squeezed(
    graph: Graph, mapping: SqueezeResult, update: Update, s: int
) -> Optional[Tuple[Graph, SqueezeResult]]:
    """The squeezed CSR of ``L_s`` and its mapping after ``update``.

    ``None`` whenever the update moves the squeeze itself — an add one of
    whose neighbours was isolated until now, a remove that leaves a
    neighbour isolated — because every squeezed ID above the change then
    shifts and a rebuild from the patched ``L_s`` is the cheaper path.
    """
    neighbours, row_weights = update.row(s)
    if neighbours.size == 0:
        return graph, mapping  # same endpoints, same edges
    ids = mapping.new_to_old
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    at = np.searchsorted(ids, neighbours)
    if update.added:
        if at[-1] == ids.size or not np.array_equal(ids[at], neighbours):
            return None
        # The new vertex takes the largest squeezed ID: column ``n`` ends
        # each neighbour's row and the new row trails the matrix.
        n = graph.num_vertices
        where = np.concatenate([indptr[at + 1], np.full(at.size, indices.size)])
        indices = np.insert(indices, where, np.concatenate([np.full(at.size, n), at]))
        weights = np.insert(weights, where, np.concatenate([row_weights, row_weights]))
        indptr = np.append(shifted_indptr(indptr, at, 1), indices.size)
        ids = np.append(ids, update.edge_id)
    else:
        if np.any(indptr[at + 1] - indptr[at] == 1):
            return None
        r = int(np.searchsorted(ids, update.edge_id))
        keep = indices != r  # column r ...
        keep[indptr[r] : indptr[r + 1]] = False  # ... and row r
        indices, weights = indices[keep], weights[keep]
        indices -= indices > r
        degree = indptr[r + 1] - indptr[r]
        indptr = shifted_indptr(indptr, at, -1)
        indptr = np.concatenate([indptr[: r + 1], indptr[r + 2 :] - degree])
        ids = np.delete(ids, r)
    patched = Graph(ids.size, indptr, indices, weights)
    patched.metadata["s"] = s
    return patched, SqueezeResult(new_to_old=ids)


def component_labels(
    labels: np.ndarray, ids: np.ndarray, pending: Sequence[Update], s: int
) -> Optional[np.ndarray]:
    """Connected-component labels of the squeezed ``L_s`` after ``pending``.

    ``labels`` are over the squeezed IDs before the first pending update,
    ``ids`` is the squeeze mapping (``new_to_old``) after the last.
    ``csgraph`` numbers components by their smallest vertex, and a new
    vertex is never the smallest, so an add is: give its neighbours'
    components the smallest of their labels and close the gaps.  ``None``
    when a pending update removed a vertex or shifted the squeeze.
    """
    rows = []
    for update in pending:
        neighbours, _ = update.row(s)
        if neighbours.size:
            if not update.added:
                return None
            rows.append(neighbours)
    # Every add that touches L_s appends itself; anything more is a
    # neighbour it activated, which renumbers the vertices after it.
    if labels.size + len(rows) != ids.size:
        return None
    for neighbours in rows:
        # Earlier mappings are prefixes of ``ids``: positions agree.
        merged = np.unique(labels[np.searchsorted(ids, neighbours)])
        relabel = np.ones(int(labels.max()) + 1, dtype=np.int64)
        relabel[merged[1:]] = 0
        relabel = np.cumsum(relabel) - 1
        relabel[merged[1:]] = relabel[merged[0]]
        labels = np.append(relabel[labels], relabel[merged[0]])
    return labels


def unchanged(values: np.ndarray, pending: Sequence[Update], s: int) -> Optional[np.ndarray]:
    """A metric whose squeezed graph no pending update touched: the same
    array; ``None`` as soon as one update's row reaches ``L_s``."""
    if any(np.any(update.row_weights >= s) for update in pending):
        return None
    return values

"""Array kernels that carry cached results across a window of updates.

The engine journals every ``add_hyperedge`` / ``remove_hyperedge`` as an
:class:`Update` — the edge's ID, its size and its *overlap row* (the
hyperedges it shares a vertex with, and how many) — and, on a miss, brings
a cached ancestor forward across every update since it (its *window*) in
one pass instead of recomputing.  Each kernel here is that pass for one
kind of cached value:

* :func:`line_graph` — canonical ``L_s`` pairs: one splice cuts the
  removed hyperedges' pairs and inserts the added ones';
* :func:`squeezed` — the Stage-4 CSR graph and its ID mapping: one splice
  of the int32 column indices drops the removed vertices' rows and columns
  and closes the old rows on the added vertices, whose rows are appended
  (the graph is unweighted, so no weight array rides along);
* :func:`component_labels` — connected-component labels: a remove splits
  a component only into pieces that hold its neighbours, found by a
  lockstep search; an added vertex merges its neighbours' components.

Contract: a kernel's result is **byte for byte** what the from-scratch
path (``index.line_graph`` → ``squeeze`` → ``to_graph`` → metric) returns
on the updated hypergraph — same values, dtypes, shapes and C order — or
the kernel returns ``None`` and the caller recomputes.  Inputs are never
written to (they are shared, read-only cache values); arrays a window
leaves unchanged are shared with the input, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.core.slinegraph import SLineGraph
from repro.graph.connected_components import by_smallest_vertex
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


_NONE = np.empty(0, dtype=np.int64)


def _removed(window: Sequence[Update]) -> np.ndarray:
    """IDs of the hyperedges the window removes, ascending."""
    return np.sort(np.array([u.edge_id for u in window if not u.added], dtype=np.int64))


def _first_added(window: Sequence[Update]) -> int:
    """The smallest ID the window adds: every ID below it predates the window."""
    return min((u.edge_id for u in window if u.added), default=np.iinfo(np.int64).max)


def _cut_pairs(
    window: Sequence[Update], s: int, first: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs of ``L_s`` before the window that its removes cut, as
    ``(removed end, other end)`` columns.  A pair is in the row of whichever
    end went first; a pair with an end at or above ``first`` — an ID the
    window added — was never in ``L_s`` before it."""
    removed_ends, other_ends = [_NONE], [_NONE]
    for update in window:
        if not update.added and update.edge_id < first:
            neighbours, _ = update.row(s)
            neighbours = neighbours[neighbours < first]
            removed_ends.append(np.full(neighbours.size, update.edge_id))
            other_ends.append(neighbours)
    return np.concatenate(removed_ends), np.concatenate(other_ends)


def _added_pairs(
    window: Sequence[Update], s: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``L_s`` pairs the window's adds leave behind as ``(lo, hi, weight)``
    columns in (lo, hi) order: each add's row cut at ``s``, less every pair
    with an endpoint the same window removes again.  ``hi`` is always the
    added hyperedge — its ID is larger than any it overlaps."""
    removed = _removed(window)
    lo, hi, weights = [], [], []
    for update in window:
        if not update.added or update.edge_id in removed:
            continue
        neighbours, row_weights = update.row(s)
        if removed.size:
            alive = ~np.isin(neighbours, removed)
            neighbours, row_weights = neighbours[alive], row_weights[alive]
        lo.append(neighbours)
        hi.append(np.full(neighbours.size, update.edge_id, dtype=np.int64))
        weights.append(row_weights)
    if not lo:
        return _NONE, _NONE, _NONE
    lo, hi, weights = np.concatenate(lo), np.concatenate(hi), np.concatenate(weights)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order], weights[order]


def _spliced(
    array: np.ndarray,
    cut: np.ndarray,
    where: np.ndarray,
    values: np.ndarray,
    remap: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``array`` less its entries at positions ``cut``, with ``values``
    inserted before its entries at positions ``where``, and every kept entry
    passed through ``remap`` when one is given.

    Both position arrays are ascending, and values bound for one position
    keep their order (``np.insert``'s rule).  One copy per run of kept
    entries: a window cuts and inserts a few rows' worth of a whole array,
    which ``np.delete`` / ``np.insert`` would each pay for in full through
    a mask over every entry.
    """
    out = np.empty(array.size - cut.size + values.size, dtype=array.dtype)
    out[where - np.searchsorted(cut, where) + np.arange(where.size)] = values
    bounds = np.unique(np.concatenate(([0, array.size], cut, cut + 1, where)))
    starts, stops = bounds[:-1], bounds[1:]
    kept = ~np.isin(starts, cut)
    starts, stops = starts[kept], stops[kept]
    to = starts - np.searchsorted(cut, starts) + np.searchsorted(where, starts, side="right")
    for a, b, t in zip(starts.tolist(), stops.tolist(), to.tolist()):
        out[t : t + b - a] = array[a:b] if remap is None else remap[array[a:b]]
    return out


def _lower_bound(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """``lo[i] + np.searchsorted(values[lo[i]:hi[i]], targets[i])`` for every
    ``i`` at once: one binary search per ascending run, all a step at a time."""
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        below = open_ & (values[np.minimum(mid, values.size - 1)] < targets)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)


def line_graph(graph: SLineGraph, window: Sequence[Update]) -> SLineGraph:
    """``L_s`` after ``window``, from ``L_s`` before it.

    An added hyperedge has a larger ID than every hyperedge it overlaps, so
    it is the ``hi`` of each of its pairs: a pair ``(p, new)`` of an old
    ``p`` lands at the end of ``p``'s run in the (lo, hi) order, and a pair
    of two added hyperedges after every old pair.  The pairs of removed
    hyperedges are cut and the new ones inserted in one splice of the
    flattened pairs.
    """
    s = graph.s
    old = graph.num_hyperedges
    edges, weights = graph.edges, graph.weights
    removed_ends, other_ends = _cut_pairs(window, s, old)
    firsts = edges[:, 0]
    cut = _NONE
    if removed_ends.size:
        lo_end = np.minimum(removed_ends, other_ends)
        cut = np.sort(
            _lower_bound(
                edges[:, 1],
                np.searchsorted(firsts, lo_end, side="left"),
                np.searchsorted(firsts, lo_end, side="right"),
                np.maximum(removed_ends, other_ends),
            )
        )
    lo, hi, row_weights = _added_pairs(window, s)
    if cut.size or lo.size:
        at = np.searchsorted(firsts, lo, side="right")
        edges = _spliced(
            edges.reshape(-1),
            (2 * cut[:, None] + [0, 1]).reshape(-1),
            np.repeat(2 * at, 2),
            np.column_stack([lo, hi]).reshape(-1),
        ).reshape(-1, 2)
        weights = _spliced(weights, cut, at, row_weights)
    # The vertex set E_s: removed hyperedges of size >= s leave it, added
    # ones join it at the end (their IDs are the largest).
    removed = _removed(window)
    active = graph.active_vertices
    leaving = [u.edge_id for u in window if not u.added and u.size >= s and u.edge_id < old]
    if leaving:
        active = np.delete(active, np.searchsorted(active, leaving))
    joining = [
        u.edge_id for u in window if u.added and u.size >= s and u.edge_id not in removed
    ]
    if joining:
        active = np.concatenate([active, np.array(joining, dtype=np.int64)])
    num_hyperedges = max([old] + [u.edge_id + 1 for u in window if u.added])
    return SLineGraph.from_canonical(s, edges, weights, num_hyperedges, active)


def squeezed(
    graph: Graph, mapping: SqueezeResult, window: Sequence[Update], s: int
) -> Optional[Tuple[Graph, SqueezeResult]]:
    """The squeezed CSR of ``L_s`` and its mapping after ``window``.

    Removed vertices leave with their rows and columns; added vertices with
    a pair take the largest squeezed IDs, so each old row gains its new
    columns at its end and the new rows trail the matrix.  Both happen in
    one splice of the column indices and one shift of ``indptr``; the graph
    is unweighted, so nothing else is copied.  ``None`` whenever the window
    moves the squeeze of an old vertex — an add gives a previously isolated
    hyperedge its first neighbour, or a remove takes a surviving neighbour's
    last one — because every squeezed ID above it then shifts and a rebuild
    from ``L_s`` is the cheaper path.
    """
    ids = mapping.new_to_old
    indptr, indices = graph.indptr, graph.indices
    n = ids.size
    removed = _removed(window)
    at = np.searchsorted(ids, removed)
    gone = at[ids[np.minimum(at, n - 1)] == removed] if n else _NONE
    lo, hi, _ = _added_pairs(window, s)
    if not (gone.size or lo.size):
        return graph, mapping  # same vertices, same edges
    k = n - gone.size
    # Cut: each gone vertex's row, and its entry in each neighbour's row.
    cut, remap = _NONE, None
    if gone.size:
        own = np.concatenate([np.arange(indptr[r], indptr[r + 1]) for r in gone])
        neighbours = indices[own]
        mirrored = _lower_bound(
            indices,
            indptr[neighbours],
            indptr[neighbours + 1],
            np.repeat(gone, indptr[gone + 1] - indptr[gone]),
        )
        cut = np.unique(np.concatenate([own, mirrored]))
        everyone = np.arange(n)
        remap = everyone - np.searchsorted(gone, everyone)
    # Insert: each added pair once in either endpoint's row, at the row's
    # end (old rows) or the arrays' end (the new rows after them).
    old = lo < _first_added(window)
    new = np.unique(np.concatenate([hi, lo[~old]]))
    src = np.searchsorted(ids, lo[old])
    if src.size and (src[-1] == n or not np.array_equal(ids[src], lo[old])):
        return None  # an isolated hyperedge gained its first neighbour
    lo_at = k + np.searchsorted(new, lo)
    lo_at[old] = src - np.searchsorted(gone, src)
    hi_at = k + np.searchsorted(new, hi)
    lo_end = np.full(lo.size, indices.size)
    lo_end[old] = indptr[src + 1]
    rows = np.concatenate([lo_at, hi_at])
    cols = np.concatenate([hi_at, lo_at])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    where = np.concatenate([lo_end, np.full(hi.size, indices.size)])[order]
    indices = _spliced(indices, cut, where, cols, remap)
    indptr = np.delete(indptr - np.searchsorted(cut, indptr), gone)
    indptr = shifted_indptr(np.concatenate([indptr, np.full(new.size, indptr[-1])]), rows, 1)
    if gone.size and np.any(indptr[1:] == indptr[:-1]):
        return None  # a surviving vertex lost its last neighbour
    patched = Graph(k + new.size, indptr, indices)
    patched.metadata["s"] = s
    return patched, SqueezeResult(new_to_old=np.concatenate([np.delete(ids, gone), new]))


def component_labels(
    labels: np.ndarray,
    graph: Graph,
    mapping: SqueezeResult,
    window: Sequence[Update],
    s: int,
) -> Optional[np.ndarray]:
    """Connected-component labels of the squeezed ``L_s`` after ``window``.

    ``labels`` are over the squeezed IDs before the window; ``graph`` and
    ``mapping`` are the squeezed ``L_s`` after it.  Only removes split
    components, and only into pieces that each hold a surviving neighbour
    of a removed vertex: :func:`_split_off` finds every piece but one by a
    lockstep search from those neighbours.  Components then merge over the
    added vertices' rows, and labels are renumbered by each component's
    smallest vertex, which is ``csgraph``'s order.

    ``None`` when the window moved the squeeze of an old vertex — a
    surviving neighbour of a removed vertex left the graph, or an old
    vertex joined it — because the old labels no longer line up.
    """
    ids = mapping.new_to_old
    first = _first_added(window)
    old = int(np.searchsorted(ids, first))  # ids[:old] predate the window
    # The old vertices gone from L_s — every end of a cut pair the window
    # removes — and the neighbours they leave behind.
    removed_ends, other_ends = _cut_pairs(window, s, first)
    lost = np.isin(other_ends, _removed(window))
    gone = np.unique(np.concatenate([removed_ends, other_ends[lost]]))
    seeds = np.unique(other_ends[~lost])
    at = np.searchsorted(ids[:old], seeds)
    if old + gone.size != labels.size or (
        at.size and (at[-1] == old or not np.array_equal(ids[at], seeds))
    ):
        return None
    if not gone.size and old == ids.size:
        return labels  # same vertices, none split off, none added
    # gone and ids[:old] are disjoint and ascending: gone[j] sat j places
    # after the old vertices below it.
    out = np.delete(labels, np.searchsorted(ids[:old], gone) + np.arange(gone.size))
    fresh = int(labels.max()) + 1 if labels.size else 0
    out = np.concatenate([out, np.arange(fresh, fresh + ids.size - old, dtype=np.int64)])
    fresh += ids.size - old
    for piece in _split_off(graph, at):
        out[piece] = fresh
        fresh += 1
    # An added vertex joins the components of its whole row.
    start = int(graph.indptr[old])
    if start < graph.indices.size:
        rows = np.repeat(np.arange(old, ids.size), np.diff(graph.indptr[old:]))
        joined = sparse.coo_matrix(
            (np.ones(rows.size), (out[rows], out[graph.indices[start:]])),
            shape=(fresh, fresh),
        )
        out = csgraph.connected_components(joined, directed=False)[1][out]
    return by_smallest_vertex(out)


#: Vertices one lockstep step takes off a search's queue: small enough that
#: searches which are about to meet do not overshoot by a whole level of a
#: dense graph, large enough to keep the per-step overhead in numpy.
_STEP = 64


def _split_off(graph: Graph, seeds: np.ndarray) -> List[np.ndarray]:
    """The pieces components fall into when vertices leave them, but one.

    ``seeds`` are the leaving vertices' surviving neighbours in ``graph``:
    every other vertex of a component they left reaches one of them
    without passing through a leaving one.  One breadth-first search runs
    from each seed, in lockstep
    (Even and Shiloach, J. ACM 28(1), 1981): each step advances the search
    that has claimed the fewest vertices by up to :data:`_STEP` vertices of
    its queue.  Two searches that meet merge; a search that runs dry has
    enumerated a whole component of ``graph``.  The steps stop once at
    most one search is live, because its piece is the rest: the largest
    piece is never searched to its end.  Returns each dry search's vertices.
    """
    indptr, indices = graph.indptr, graph.indices
    seeds = np.unique(seeds)
    if seeds.size < 2:
        return []
    owner = np.full(graph.num_vertices, -1, dtype=np.int64)  # -> search
    owner[seeds] = np.arange(seeds.size)
    merged = np.arange(seeds.size)  # search -> the search it merged into
    queues = {search: seeds[search : search + 1] for search in range(seeds.size)}
    claimed = dict.fromkeys(queues, 1)
    dry = []
    while len(queues) > 1:
        search = min(queues, key=claimed.__getitem__)
        frontier, queue = queues[search][:_STEP], queues[search][_STEP:]
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        reached = indices[np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])]
        held = owner[reached]
        fresh = np.unique(reached[held < 0])
        owner[fresh] = search
        claimed[search] += fresh.size
        queue = [queue, fresh]
        # A dry search never meets another: it claimed every vertex next to it.
        for other in np.unique(merged[held[held >= 0]]).tolist():
            if other != search:
                queue.append(queues.pop(other))
                claimed[search] += claimed.pop(other)
                merged[merged == other] = search
        queue = np.concatenate(queue)
        if queue.size:
            queues[search] = queue
        else:
            del queues[search]
            dry.append(search)
    searched = np.flatnonzero(owner >= 0)
    by = merged[owner[searched]]
    return [searched[by == search] for search in dry]


def unchanged(values: np.ndarray, window: Sequence[Update], s: int) -> Optional[np.ndarray]:
    """A metric whose squeezed graph no update of the window touched: the
    same array; ``None`` as soon as one update's row reaches ``L_s``."""
    if any(np.any(update.row_weights >= s) for update in window):
        return None
    return values

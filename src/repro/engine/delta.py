"""Array kernels that carry cached results across a window of updates.

The engine journals every ``add_hyperedge`` / ``remove_hyperedge`` as an
:class:`Update` — the edge's ID and its *overlap row* (the
hyperedges it shares a vertex with, and how many) — and, on a miss, brings
a cached ancestor forward across every update since it (its *window*) in
one pass instead of recomputing.  Each kernel here is that pass for one
kind of cached value derived from ``L_s`` (``L_s`` itself is never carried:
it is a threshold view the index serves in one search per segment):

* :func:`squeezed` — the Stage-4 CSR graph and its ID mapping: one splice
  of the int32 column indices drops the removed vertices' rows and columns
  and closes the old rows on the added vertices, whose rows are appended
  (the graph is unweighted, so no weight array rides along);
* :func:`components` — connected-component labels, kept with an s-degree
  per hyperedge ID (:class:`Components`), from the window's rows alone: a
  hyperedge joins or leaves ``L_s`` as its degree leaves or reaches 0, a
  remove splits a component only into pieces that hold its neighbours
  (found by a lockstep search over the last squeezed CSR plus the rows
  since), and an added row merges the components it touches.  It reads no
  fresh CSR and never declines.

Contract: a kernel's result is **byte for byte** what the from-scratch
path (``index.line_graph`` → ``squeeze`` → ``to_graph`` → metric) returns
on the updated hypergraph — same values, dtypes, shapes and C order — or
the kernel returns ``None`` and the caller recomputes; for components the
served pair — squeezed IDs and labels — is what it binds.  Inputs are
never written to (they are shared, read-only cache values); arrays a
window leaves unchanged are shared with the input, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

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


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by a sort and a neighbour compare.  NumPy 2's
    ``np.unique`` hashes before it sorts, which costs 5-13x more on the
    small integer arrays a carry deduplicates (40 us against 8 us at 300
    entries)."""
    values = np.sort(values)
    if values.size < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _removed(window: Sequence[Update]) -> np.ndarray:
    """IDs of the hyperedges the window removes, ascending."""
    return np.sort(np.array([u.edge_id for u in window if not u.added], dtype=np.int64))


def _first_added(window: Sequence[Update]) -> int:
    """The smallest ID the window adds: every ID below it predates the window."""
    return min((u.edge_id for u in window if u.added), default=np.iinfo(np.int64).max)


def _added_pairs(window: Sequence[Update], s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``L_s`` pairs the window's adds leave behind as ``(lo, hi)``
    columns in (lo, hi) order: each add's row cut at ``s``, less every pair
    with an endpoint the same window removes again.  ``hi`` is always the
    added hyperedge — its ID is larger than any it overlaps."""
    removed = _removed(window)
    lo, hi = [], []
    for update in window:
        if not update.added or update.edge_id in removed:
            continue
        neighbours, _ = update.row(s)
        lo.append(neighbours)
        hi.append(np.full(neighbours.size, update.edge_id, dtype=np.int64))
    if not lo:
        return _NONE, _NONE
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    if removed.size:  # one pass for the whole window, not one per add
        alive = ~np.isin(lo, removed)
        lo, hi = lo[alive], hi[alive]
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


def _spliced(
    array: np.ndarray,
    cut: np.ndarray,
    where: np.ndarray,
    values: np.ndarray,
    gone: np.ndarray,
) -> np.ndarray:
    """``array`` less its entries at positions ``cut``, with ``values``
    inserted before its entries at positions ``where``, and every kept entry
    lowered by the number of IDs in ``gone`` below it.

    Both position arrays are ascending, and values bound for one position
    keep their order (``np.insert``'s rule).  One copy per run of kept
    entries: a window cuts and inserts a few rows' worth of a whole array,
    which ``np.delete`` / ``np.insert`` would each pay for in full through
    a mask over every entry.  ``gone`` (ascending, none of them kept) is
    applied in place, one compare-and-subtract pass in ``array``'s dtype per
    ID, before ``values`` are written: they are already in the new IDs.  A
    gather through an int64 remap table would cost a pass and two casts.
    """
    out = np.empty(array.size - cut.size + values.size, dtype=array.dtype)
    bounds = _distinct(np.concatenate(([0, array.size], cut, cut + 1, where)))
    starts, stops = bounds[:-1], bounds[1:]
    kept = ~np.isin(starts, cut)
    starts, stops = starts[kept], stops[kept]
    to = starts - np.searchsorted(cut, starts) + np.searchsorted(where, starts, side="right")
    for a, b, t in zip(starts.tolist(), stops.tolist(), to.tolist()):
        out[t : t + b - a] = array[a:b]
    # Highest first: a pass lowers only entries above its ID, which stay
    # above every lower one, so each later pass still compares old IDs.
    for below in gone[::-1].tolist():
        out -= out > below
    out[where - np.searchsorted(cut, where) + np.arange(where.size)] = values
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


def squeezed(
    graph: Graph, mapping: SqueezeResult, window: Sequence[Update], s: int
) -> Optional[Tuple[Graph, SqueezeResult]]:
    """The squeezed CSR of ``L_s`` and its mapping after ``window``.

    Removed vertices leave with their rows and columns; added vertices with
    a pair take the largest squeezed IDs, so each old row gains its new
    columns at its end and the new rows trail the matrix.  Both happen in
    one splice of the column indices and one shift of ``indptr``; the graph
    is unweighted, so nothing else is copied.  The splice copies the kept
    int32 columns run by run, as for an add, then lowers them in place by
    the number of gone squeezed IDs below each — one compare-and-subtract
    pass per removed vertex, no int64 gather.  ``None`` whenever the window
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
    lo, hi = _added_pairs(window, s)
    if not (gone.size or lo.size):
        return graph, mapping  # same vertices, same edges
    k = n - gone.size
    # Cut: each gone vertex's row, and its entry in each neighbour's row.
    cut = _NONE
    if gone.size:
        own = np.concatenate([np.arange(indptr[r], indptr[r + 1]) for r in gone])
        neighbours = indices[own]
        mirrored = _lower_bound(
            indices,
            indptr[neighbours],
            indptr[neighbours + 1],
            np.repeat(gone, indptr[gone + 1] - indptr[gone]),
        )
        cut = _distinct(np.concatenate([own, mirrored]))
    # Insert: each added pair once in either endpoint's row, at the row's
    # end (old rows) or the arrays' end (the new rows after them).
    old = lo < _first_added(window)
    new = _distinct(np.concatenate([hi, lo[~old]]))
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
    indices = _spliced(indices, cut, where, cols, gone)
    indptr = np.delete(indptr - np.searchsorted(cut, indptr), gone)
    indptr = shifted_indptr(np.concatenate([indptr, np.full(new.size, indptr[-1])]), rows, 1)
    if gone.size and np.any(indptr[1:] == indptr[:-1]):
        return None  # a surviving vertex lost its last neighbour
    patched = Graph(k + new.size, indptr, indices)
    patched.metadata["s"] = s
    return patched, SqueezeResult(new_to_old=np.concatenate([np.delete(ids, gone), new]))


@dataclass(frozen=True, eq=False)
class Components:
    """The connected components of the squeezed ``L_s``, over hyperedge IDs.

    ``label[e]`` is hyperedge ``e``'s component in the served numbering, or
    -1 while ``e`` has no neighbour in ``L_s``; ``degree[e]`` counts those
    neighbours.  An ID at or past ``label.size`` has neither: a window that
    leaves ``L_s`` as it was hands the entry on without growing it.  What
    ``metric(s, "connected_components")`` serves is ``labels`` over ``ids``
    — ``flatnonzero(label >= 0)``, the squeeze's ``new_to_old`` — so the
    IDs and the labels of one answer always come from one entry.
    """

    label: np.ndarray
    degree: np.ndarray
    ids: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(
        cls, graph: Graph, mapping: SqueezeResult, labels: np.ndarray, num_hyperedges: int
    ) -> "Components":
        """The entry of a from-scratch run: ``labels`` over ``graph``'s
        squeezed IDs, spread over ``num_hyperedges`` IDs in O(|E|)."""
        ids = mapping.new_to_old
        label = np.full(num_hyperedges, -1, dtype=np.int32)
        label[ids] = labels
        degree = np.zeros(num_hyperedges, dtype=np.int32)
        degree[ids] = np.diff(graph.indptr)
        return cls(label, degree, ids, labels)


#: What a carry searches when a remove may have split a component: the
#: squeezed CSR of ``L_s`` and its mapping at some point of the journal, and
#: the updates since that point.
SearchBase = Tuple[Graph, SqueezeResult, Sequence[Update]]


def components(
    entry: Components,
    window: Sequence[Update],
    s: int,
    search_base: Callable[[], SearchBase],
) -> Components:
    """The components of the squeezed ``L_s`` after ``window``, from its rows.

    Each update costs its row.  An add sets its own s-degree and raises its
    neighbours'; a remove zeroes its own and lowers theirs.  A hyperedge
    whose degree left 0 joins with a fresh label; one whose degree reached
    0 leaves — so a shifted squeeze is a degree change like any other.

    Only a remove splits a component, and only into pieces that each hold
    one of its surviving neighbours: :func:`_split_off` finds every piece
    but one by a lockstep search from those neighbours, over
    ``search_base()`` — asked for only then.  Components then merge over
    the *distinct* label pairs of the added rows, by union-find, and the
    labels are renumbered by each component's smallest hyperedge, which is
    ``csgraph``'s order.  O(|E| + rows), never O(nnz(L_s)) but for the
    search.
    """
    rows = [(update, update.row(s)[0]) for update in window]
    if not any(row.size for _, row in rows):
        return entry  # no update of the window reaches L_s
    # Every ID a row names is below this (an ID past ``label.size`` that
    # gained a neighbour did so in a row of this window).
    size = max([entry.label.size] + [update.edge_id + 1 for update in window])
    label = np.full(size, -1, dtype=np.int32)
    label[: entry.label.size] = entry.label
    degree = np.zeros(size, dtype=np.int32)
    degree[: entry.degree.size] = entry.degree
    was = label >= 0
    removed = []
    for update, row in rows:
        if update.added:
            degree[update.edge_id] = row.size
            degree[row] += 1  # a row's IDs are distinct
        else:
            degree[update.edge_id] = 0
            degree[row] -= 1
            removed.append(update.edge_id)
    now = degree > 0
    label[was & ~now] = -1
    joined = np.flatnonzero(now & ~was)
    fresh = int(entry.labels.max()) + 1 if entry.labels.size else 0
    label[joined] = np.arange(fresh, fresh + joined.size)
    fresh += joined.size
    # A remove of a hyperedge outside L_s before the window cuts only pairs
    # the window added: the merges below never see them.
    seeds = [row for update, row in rows if not update.added and was[update.edge_id]]
    if seeds:
        seeds = _distinct(np.concatenate(seeds))
        seeds = seeds[was[seeds] & now[seeds]]
        if seeds.size > 1:
            for piece in _split_off(_neighbours(*search_base(), s, size), size, seeds):
                label[piece] = fresh
                fresh += 1
    _merge(label, fresh, rows, removed)
    ids = np.flatnonzero(label >= 0)
    labels = label[ids].astype(np.int64)
    if not _by_smallest_vertex_already(labels):
        labels = by_smallest_vertex(labels)
        label[ids] = labels
    return Components(label, degree, ids, labels)


def _by_smallest_vertex_already(labels: np.ndarray) -> bool:
    """Whether ``labels`` are numbered as :func:`by_smallest_vertex` numbers
    them: each label first appears right after every smaller one has.  An
    add that only grows components, or a remove of no component's first
    vertex, keeps that order, and two passes check it."""
    if not labels.size:
        return True
    highest = np.maximum.accumulate(labels)
    return labels[0] == 0 and bool(np.all(labels[1:] <= highest[:-1] + 1))


def _merge(label: np.ndarray, fresh: int, rows, removed: List[int]) -> None:
    """Make the components each added row joins one, in ``label``.

    A pair with an end the window removes again is no pair of ``L_s``.
    Union-find runs over the distinct label pairs only: a row of an
    hyperedge in one big component is one pair however long it is.
    """
    gone = np.array(removed, dtype=np.int64)
    ends = []
    for update, row in rows:
        if not update.added or update.edge_id in removed or not row.size:
            continue
        if gone.size:
            row = row[~np.isin(row, gone)]
        # One int64 key per pair: ``fresh`` squared overflows int32.
        ends.append(_distinct(label[row]).astype(np.int64) * fresh + label[update.edge_id])
    pairs = _distinct(np.concatenate(ends)) if ends else _NONE
    parent = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in zip((pairs // fresh).tolist(), (pairs % fresh).tolist()):
        a, b = root(a), root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    if parent:
        # Index 0 is label -1: a hyperedge outside L_s stays outside.
        remap = np.arange(-1, fresh, dtype=label.dtype)
        for x in parent:
            remap[x + 1] = root(x)
        label += 1
        np.take(remap, label, out=label)


def _neighbours(
    graph: Graph, mapping: SqueezeResult, since: Sequence[Update], s: int, size: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The neighbour gather of ``L_s`` now, over hyperedge IDs below ``size``:
    each ID's row of the squeezed CSR ``graph`` (mapped back through
    ``mapping``) plus its pairs in the added rows of ``since``, the updates
    after that CSR, less every ID ``since`` removed.  The CSR is read as it
    is, however old: the window's rows carry the rest."""
    ids, indptr, indices = mapping.new_to_old, graph.indptr, graph.indices
    blocked = np.zeros(size, dtype=bool)
    lo, hi = [_NONE], [_NONE]
    for update in since:
        row = update.row(s)[0]
        if not row.size:
            continue  # outside L_s: neither a pair nor a vertex to block
        if update.added:
            lo.append(row)
            hi.append(np.full(row.size, update.edge_id, dtype=np.int64))
        else:
            blocked[update.edge_id] = True
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    source, target = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(source, kind="stable")
    source, target = source[order], target[order]

    def gather(frontier: np.ndarray) -> np.ndarray:
        at = np.searchsorted(ids, frontier)
        at = at[ids[np.minimum(at, ids.size - 1)] == frontier] if ids.size else _NONE
        reached = np.concatenate(
            [
                ids[indices[_runs(indptr[at], indptr[at + 1])]],
                target[
                    _runs(
                        np.searchsorted(source, frontier, side="left"),
                        np.searchsorted(source, frontier, side="right"),
                    )
                ],
            ]
        )
        return reached[~blocked[reached]]

    return gather


def _runs(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]:stops[k]`` of every run, concatenated."""
    counts = stops - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


#: Vertices one lockstep step takes off a search's queue: small enough that
#: searches which are about to meet do not overshoot by a whole level of a
#: dense graph, large enough to keep the per-step overhead in numpy.
_STEP = 64


def _split_off(
    neighbours: Callable[[np.ndarray], np.ndarray], size: int, seeds: np.ndarray
) -> List[np.ndarray]:
    """The pieces components fall into when vertices leave them, but one.

    ``neighbours`` gathers the rows of a frontier in the graph the vertices
    (IDs below ``size``) left; ``seeds`` are the leaving vertices'
    surviving neighbours in it: every other vertex of a component they left
    reaches one of them without passing through a leaving one.  One
    breadth-first search runs from each seed, in lockstep (Even and
    Shiloach, J. ACM 28(1), 1981): each step advances the search that has
    claimed the fewest vertices by up to :data:`_STEP` vertices of its
    queue.  Two searches that meet merge; a search that runs dry has
    enumerated a whole component of the graph.  The steps stop once at
    most one search is live, because its piece is the rest: the largest
    piece is never searched to its end.  Returns each dry search's vertices.
    """
    seeds = _distinct(seeds)
    if seeds.size < 2:
        return []
    owner = np.full(size, -1, dtype=np.int64)  # -> search
    owner[seeds] = np.arange(seeds.size)
    merged = np.arange(seeds.size)  # search -> the search it merged into
    queues = {search: seeds[search : search + 1] for search in range(seeds.size)}
    claimed = dict.fromkeys(queues, 1)
    dry = []
    while len(queues) > 1:
        search = min(queues, key=claimed.__getitem__)
        frontier, queue = queues[search][:_STEP], queues[search][_STEP:]
        reached = neighbours(frontier)
        held = owner[reached]
        fresh = _distinct(reached[held < 0])
        owner[fresh] = search
        claimed[search] += fresh.size
        queue = [queue, fresh]
        # A dry search never meets another: it claimed every vertex next to it.
        met = _distinct(merged[held[held >= 0]])
        met = met[met != search]
        for other in met.tolist():
            queue.append(queues.pop(other))
            claimed[search] += claimed.pop(other)
        if met.size:
            merged[np.isin(merged, met)] = search
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

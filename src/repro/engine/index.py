"""The overlap index: compute the weighted overlap structure once, serve any s.

Section II-B of the paper defines the s-line graph as a Boolean filtration
of one weighted structure: ``L_s[i, j] = 1  iff  (H^T H)[i, j] >= s``.
Every s-line graph of a hypergraph is therefore a *threshold view* of the
same set of weighted overlap pairs.  :class:`OverlapIndex` materialises that
observation: it enumerates all pairwise overlaps once — reusing the
registered Stage-3 algorithms at ``s = 1`` — and holds them as a *base* of
weight-ascending segments: the one in-memory segment
:meth:`OverlapIndex.build` makes, or one memory-mapped shard per segment
for a store (:class:`~repro.store.sharded.ShardedIndex`, which adds only
what is about files).  ``L_s`` for *any* s is then one binary search per
segment — a segment whose heaviest pair is below ``s`` is never read.

Updates never rewrite the base.  They land in an *overlay* merged into
every query: an add appends its overlap row, a remove tombstones its ID —
both O(the edge's row), never a recount and never a pass over the overlay.
The overlay's rows live in capacity-doubling buffers, so an add writes only
its own row; a remove finds its edge's overlay pairs through a per-edge
position record (the row it added, and a chain through every later row
that names it) and retires them in place at weight 0, which every
``weight >= s`` mask already skips; and a weight histogram of the live
overlay pairs, kept as updates land, answers the counts.  A store's
write-ahead log, folded, installs as the same overlay
(:meth:`OverlapIndex.apply_overlay`), and
:func:`~repro.store.snapshot.write_snapshot` writes base plus overlay back
as segments on disk.  Pairs have one order wherever they are held in
segments, in memory or on disk: base order (:func:`weight_pair_order`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.slinegraph import SLineGraph, pair_order
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.overlay import OverlayHypergraph
from repro.utils.validation import ValidationError, check_s_value

#: The Stage-3 kernel every index build runs unless a caller names another:
#: the block kernel of :mod:`repro.core.algorithms.vectorized`.  Written
#: once — the engine, the store, the service and the CLI import it — and
#: recorded in each snapshot manifest as provenance.
BUILD_ALGORITHM = "vectorized"

#: ``(edges, weights)``: ``(k, 2)`` int64 pairs and their overlap counts.
Pairs = Tuple[np.ndarray, np.ndarray]


def overlap_counts_for_members(
    h: Union[Hypergraph, OverlayHypergraph], members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Overlap counts between a (new) vertex set and every existing hyperedge.

    Walks only the wedges incident to ``members`` — the incremental
    counterpart of one outer iteration of Algorithm 2.  Vertices outside
    ``h``'s current vertex range contribute nothing (they are brand new).
    ``h`` is a hypergraph or the engine's overlay of one: the walk reads
    only ``num_vertices`` and the ``vertex_memberships`` of ``members``.

    Returns
    -------
    (edge_ids, counts):
        Hyperedges sharing at least one vertex with ``members`` and the
        exact shared-vertex counts ``|members ∩ e_j|``.
    """
    rows = [
        h.vertex_memberships(int(v)) for v in members if 0 <= int(v) < h.num_vertices
    ]
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    hits = np.concatenate(rows)
    if hits.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    edge_ids, counts = np.unique(hits, return_counts=True)
    return edge_ids.astype(np.int64), counts.astype(np.int64)


def at_least(counts: np.ndarray, thresholds: Sequence[int]) -> np.ndarray:
    """``counts[t:].sum()`` for each threshold ``t``: of the values a
    ``np.bincount`` counted, how many are ``>= t``.  One suffix sum however
    many thresholds there are, and no sort."""
    above = np.append(np.cumsum(counts[::-1])[::-1], 0)
    return above[np.minimum(thresholds, counts.size)]


def weight_pair_order(edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The permutation into base order: ascending weight, ties by (i, j) —
    pair order, then a stable sort of the weights in that order.

    The one order of pairs in a segment: a build's and every shard a
    snapshot writes, whether from a build or a compaction, so a snapshot's
    bytes depend only on the state it holds.
    """
    order = pair_order(edges)
    return order.take(np.argsort(weights.take(order), kind="stable"))


def _empty_pairs() -> Pairs:
    return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)


def _reserve(
    buffer: np.ndarray, used: int, needed: int, fill: Optional[int] = None
) -> np.ndarray:
    """``buffer`` if it has room for ``needed`` rows, else a buffer of twice
    the capacity (at least ``needed``) holding its first ``used`` rows.

    The rows past them are set to ``fill`` if one is given, else left
    unwritten, so the slack is never paged in.  Doubling keeps a run of
    appends at amortised O(1) per row."""
    if needed <= buffer.shape[0]:
        return buffer
    grown = np.empty((max(2 * buffer.shape[0], needed, 16),) + buffer.shape[1:], buffer.dtype)
    grown[:used] = buffer[:used]
    if fill is not None:
        grown[used:] = fill
    return grown


class Segment(NamedTuple):
    """A weight-ascending run of base pairs, described without reading it.

    It holds the pairs ``(i, j)`` with ``row_start <= i < row_stop``.  A
    store's :class:`~repro.store.format.ShardInfo` carries the same fields,
    so each shard of a snapshot is a segment.
    """

    row_start: int
    row_stop: int
    num_pairs: int
    max_weight: int


class OverlapIndex:
    """All pairwise hyperedge overlaps of a hypergraph, served by threshold.

    Parameters
    ----------
    edges, weights:
        The overlap pairs ``(i, j)``, ``i < j``, and their exact counts
        (each ``>= 1``).  Held as one segment in base order: ascending
        weight, ties by pair (:func:`weight_pair_order`).
    edge_sizes:
        Per-hyperedge sizes ``|e_i|`` (drives the vertex set ``E_s``).
    algorithm:
        Name of the Stage-3 algorithm that enumerated the pairs.
    """

    def __init__(
        self,
        edges: np.ndarray,
        weights: np.ndarray,
        edge_sizes: np.ndarray,
        algorithm: str = "",
    ) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.int64)
        if weights.size != edges.shape[0]:
            raise ValidationError("weights length must equal the number of pairs")
        if weights.size and int(weights.min()) < 1:
            raise ValidationError("overlap weights must be >= 1")
        order = weight_pair_order(edges, weights)
        self._pairs = (edges.take(order, axis=0), weights.take(order))
        edge_sizes = np.array(edge_sizes, dtype=np.int64)
        top = int(weights.max()) if weights.size else 0
        self._start([Segment(0, edge_sizes.size, weights.size, top)], edge_sizes, algorithm)

    def _start(self, segments: Sequence, edge_sizes: np.ndarray, algorithm: str) -> None:
        """Adopt a base of ``segments`` over ``edge_sizes`` with an empty overlay."""
        self._segments = segments
        self._base_hyperedges = int(edge_sizes.size)
        # The size array is a buffer an add may write past: see add_hyperedge.
        self._sizes_buffer = self._edge_sizes = edge_sizes
        self.algorithm = algorithm
        self._removed = np.empty(0, dtype=np.int64)
        self._hidden_cache = None
        self._start_overlay(*_empty_pairs())

    def _start_overlay(self, edges: np.ndarray, weights: np.ndarray) -> None:
        """Hold ``edges``/``weights`` — live ``(existing, new)`` pairs in
        update order, each row of one added ID contiguous — as the overlay.

        The overlay's state, all in buffers owned here:

        * ``_extra_edges``/``_extra_weights`` view the first
          ``_extra_count`` rows of the pair buffers, in update order; a
          retired pair stays in place at weight 0;
        * ``_rows[k]:_rows[k + 1]`` are the rows of the ID
          ``_base_hyperedges + k``'s own overlap row;
        * ``_heads[i]`` is the last row whose first endpoint is ``i`` and
          ``_next[r]`` the row before ``r`` with the same one (-1: none);
        * ``_histogram[w]`` counts the live pairs of weight ``w``.
        """
        count = int(weights.size)
        self._edges_buffer = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self._weights_buffer = np.array(weights, dtype=np.int64)
        self._extra_count = count
        self._view_overlay()
        added = np.arange(self._base_hyperedges, self.num_hyperedges + 1)
        self._rows = np.searchsorted(self._edges_buffer[:, 1], added)
        self._heads = np.full(self.num_hyperedges, -1, dtype=np.int64)
        self._next = np.empty(count, dtype=np.int64)
        self._link(0, count)
        self._histogram = np.bincount(self._weights_buffer)

    def _view_overlay(self) -> None:
        self._extra_edges = self._edges_buffer[: self._extra_count]
        self._extra_weights = self._weights_buffer[: self._extra_count]

    def _link(self, start: int, stop: int) -> None:
        """Chain the overlay rows ``start..stop`` into ``_heads``/``_next`` by
        first endpoint, in row order — one stable sort of the batch, none
        for one add's row, whose IDs ascend."""
        firsts = self._edges_buffer[start:stop, 0]
        if (firsts[1:] > firsts[:-1]).all():
            self._next[start:stop] = self._heads[firsts]
            self._heads[firsts] = np.arange(start, stop)
            return
        positions = start + np.argsort(firsts, kind="stable")
        firsts = self._edges_buffer[positions, 0]
        leads = np.ones(firsts.size, dtype=bool)
        leads[1:] = firsts[1:] != firsts[:-1]
        previous = np.empty(firsts.size, dtype=np.int64)
        previous[1:] = positions[:-1]
        previous[leads] = self._heads[firsts[leads]]
        self._next[positions] = previous
        lasts = np.append(leads[1:], True)
        self._heads[firsts[lasts]] = positions[lasts]

    def _overlay_rows(self, edge_id: int) -> np.ndarray:
        """Every overlay row holding a pair of ``edge_id``, live or retired:
        its own overlap row and the later rows that name it first."""
        rows = []
        row = int(self._heads[edge_id])
        while row >= 0:
            rows.append(row)
            row = int(self._next[row])
        own = edge_id - self._base_hyperedges
        if own >= 0:
            return np.concatenate(
                [np.arange(self._rows[own], self._rows[own + 1]), np.array(rows, dtype=np.int64)]
            )
        return np.array(rows, dtype=np.int64)

    @classmethod
    def build(
        cls,
        h: Hypergraph,
        algorithm: str = BUILD_ALGORITHM,
    ) -> "OverlapIndex":
        """Enumerate every weighted overlap pair of ``h`` once.

        Runs the registered Stage-3 algorithm at ``s = 1``: with no
        filtration threshold, the emitted pairs are exactly the off-diagonal
        upper triangle of ``H^T H`` with their exact overlap counts.
        """
        from repro.core.dispatch import s_line_graph

        graph = s_line_graph(h, 1, algorithm=algorithm)
        return cls(
            edges=graph.edges,
            weights=graph.weights,
            edge_sizes=h.edge_sizes(),
            algorithm=algorithm,
        )

    # ------------------------------------------------------------------ #
    # The base
    # ------------------------------------------------------------------ #
    def _load(self, segment) -> Pairs:
        """The ``(edges, weights)`` arrays of one base segment."""
        return self._pairs

    def _read(self, lowest: int = 1) -> Iterator[Pairs]:
        """Each base segment that may hold a pair of weight ``>= lowest``;
        the others are skipped on their metadata, unread."""
        for segment in self._segments:
            if segment.num_pairs and segment.max_weight >= lowest:
                yield self._load(segment)

    def _tombstones(self) -> np.ndarray:
        """The removed hyperedges that have base pairs to hide (sorted)."""
        return self._removed[: np.searchsorted(self._removed, self._base_hyperedges)]

    @staticmethod
    def _hides(edges: np.ndarray, tombstones: np.ndarray) -> np.ndarray:
        """Mask of the pair rows with an endpoint in ``tombstones``."""
        return np.isin(edges[:, 0], tombstones) | np.isin(edges[:, 1], tombstones)

    def _hidden_by_weight(self) -> np.ndarray:
        """How many base pairs of each weight the tombstones hide (index =
        weight), from one pass over the base per set of tombstones.

        Counted when first asked for, not as each tombstone lands: reading
        the hidden pairs' weights pages a store's weight files in, and a
        writer that never counts (a follower's source) should not hold them.
        """
        if self._hidden_cache is None:
            tombstones = self._tombstones()
            hidden = [np.empty(0, dtype=np.int64)]
            for edges, weights in self._read():
                hit = self._hides(edges, tombstones)
                hidden.append(np.asarray(weights[hit], dtype=np.int64))
            self._hidden_cache = np.bincount(np.concatenate(hidden))
        return self._hidden_cache

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_pairs(self) -> int:
        """Number of live overlap pairs (edges of the 1-line graph): the
        base's, less those tombstones hide, plus the overlay's."""
        base = sum(segment.num_pairs for segment in self._segments)
        hidden = int(self._hidden_by_weight().sum()) if self._tombstones().size else 0
        return base - hidden + self._overlay_pairs()

    def _overlay_pairs(self) -> int:
        """Number of live overlay pairs, from the histogram."""
        return int(self._histogram.sum())

    @property
    def num_hyperedges(self) -> int:
        """Size of the hyperedge-ID space the pairs are defined over."""
        return int(self._edge_sizes.size)

    @property
    def max_weight(self) -> int:
        """Largest live pairwise overlap — the largest s with a non-empty ``L_s``."""
        top = max((segment.max_weight for segment in self._segments), default=0)
        top = max(top, self._histogram.size - 1)
        return int(np.count_nonzero(self.edge_counts(range(1, top + 1))))

    @property
    def edge_sizes(self) -> np.ndarray:
        """Per-hyperedge sizes (tombstones at 0), exactly
        :attr:`num_hyperedges` of them."""
        return self._edge_sizes

    def nbytes(self) -> int:
        """Bytes of the pair store — base and live overlay pairs at 24 bytes
        each (an int64 ``(i, j)`` and weight) — plus the size array."""
        held = sum(segment.num_pairs for segment in self._segments)
        return 24 * (held + self._overlay_pairs()) + int(self._edge_sizes.nbytes)

    # ------------------------------------------------------------------ #
    # Threshold views
    # ------------------------------------------------------------------ #
    def _slices(self, s: int) -> Iterator[Pairs]:
        """Stream the live ``weight >= s`` pairs: one binary-searched slice
        per base segment, tombstoned pairs dropped, then the overlay's (a
        retired overlay pair, at weight 0, is below every ``s``)."""
        tombstones = self._tombstones()
        for edges, weights in self._read(s):
            lo = int(np.searchsorted(weights, s, side="left"))
            edges, weights = edges[lo:], weights[lo:]
            if tombstones.size:
                keep = ~self._hides(edges, tombstones)
                if not keep.all():
                    edges, weights = edges[keep], weights[keep]
            if weights.size:
                yield edges, weights
        mask = self._extra_weights >= s
        if mask.any():
            yield self._extra_edges[mask], self._extra_weights[mask]

    def pairs_at_least(self, s: int) -> Pairs:
        """All live pairs with overlap ``>= s`` as ``(edges, weights)``.

        Pairs held in one run come back as a view of it, zero copies; only
        slices of several runs are concatenated.
        """
        parts = list(self._slices(check_s_value(s)))
        if not parts:
            return _empty_pairs()
        if len(parts) == 1:
            return np.asarray(parts[0][0]), np.asarray(parts[0][1])
        edges = np.concatenate([np.asarray(e) for e, _ in parts], axis=0)
        weights = np.concatenate([np.asarray(w) for _, w in parts])
        return edges, weights

    def edge_count(self, s: int) -> int:
        """Number of edges of ``L_s`` without materialising the graph."""
        return int(self.edge_counts([check_s_value(s)])[0])

    def edge_counts(self, s_values: Sequence[int]) -> np.ndarray:
        """:meth:`edge_count` of every threshold in ``s_values`` (each ``>= 1``).

        One binary search per segment and threshold — a segment whose
        ``max_weight`` is below every threshold costs nothing — less the
        base pairs of weight ``>= s`` that tombstones hide, plus the
        overlay's, read off its histogram.
        """
        s_values = np.asarray(s_values, dtype=np.int64)
        totals = np.zeros(s_values.size, dtype=np.int64)
        lowest = int(s_values.min()) if s_values.size else 1
        for _, weights in self._read(lowest):
            totals += weights.shape[0] - np.searchsorted(weights, s_values, side="left")
        if self._tombstones().size:
            totals -= at_least(self._hidden_by_weight(), s_values)
        if self._histogram.size:
            totals += at_least(self._histogram, s_values)
        return totals

    def active_vertices(self, s: int) -> np.ndarray:
        """The vertex set ``E_s``: hyperedges with ``|e| >= s``."""
        s = check_s_value(s)
        return np.flatnonzero(self._edge_sizes >= s).astype(np.int64)

    def _reject(self, error: ValidationError) -> None:
        """Hook for a stored row :class:`SLineGraph` refuses: raised as is
        here; a store reports it as damage instead."""

    def line_graph(self, s: int) -> SLineGraph:
        """``L_s(H)`` as a threshold view: the ``weight >= s`` slices, with
        every check of the :class:`SLineGraph` constructor.

        The overlap counts are never recomputed.  The base is weight-ordered,
        not pair-ordered, so the constructor re-canonicalises the slices —
        one packed-key sort over runs that are already pair-sorted within
        each weight.
        """
        s = check_s_value(s)
        edges, weights = self.pairs_at_least(s)
        try:
            return SLineGraph(s, edges, weights, self.num_hyperedges, self.active_vertices(s))
        except ValidationError as exc:
            self._reject(exc)
            raise

    def sweep(self, s_values: Iterable[int]) -> Dict[int, SLineGraph]:
        """``s -> L_s`` for a batch of thresholds from *one* pass.

        Builds :meth:`line_graph` at the smallest requested threshold —
        one stream over the segments, one canonicalisation, every check —
        then derives each larger ``L_s`` as a weight mask over its arrays.
        Each result is equal to the corresponding :meth:`line_graph` output.
        """
        s_list = sorted({check_s_value(v) for v in s_values})
        if not s_list:
            raise ValidationError("sweep requires at least one s value")
        base = self.line_graph(s_list[0])
        out: Dict[int, SLineGraph] = {base.s: base}
        for s in s_list[1:]:
            mask = base.weights >= s
            # A weight mask keeps canonical rows canonical, which is all
            # ``__post_init__`` would re-establish.
            out[s] = SLineGraph.from_canonical(
                s,
                base.edges.compress(mask, axis=0),
                base.weights.compress(mask),
                self.num_hyperedges,
                self.active_vertices(s),
            )
        return out

    def s_profile(self) -> Dict[int, int]:
        """``s -> |edges of L_s|`` for every s in ``1..max_weight`` (Figure 4)."""
        s_values = range(1, self.max_weight + 1)
        return dict(zip(s_values, self.edge_counts(s_values).tolist()))

    def pairs_in_rows(self, row_start: int, row_stop: int) -> Pairs:
        """The live pairs ``(i, j)`` with ``row_start <= i < row_stop`` as one
        ``(edges, weights)`` run — the base's, segment by segment, then the
        overlay's — the block a snapshot shard is written from.

        Only segments whose rows overlap the range are read.  The run is a
        copy, never a view of a segment, and is put in no order here: the
        snapshot writer puts it in base order (:func:`weight_pair_order`).
        Parts are concatenated only when more than one is non-empty.
        """
        tombstones = self._tombstones()
        runs = []
        for segment in self._segments:
            overlaps = segment.row_start < row_stop and row_start < segment.row_stop
            if not (segment.num_pairs and overlaps):
                continue
            edges, weights = self._load(segment)
            rows = edges[:, 0]
            keep = (rows >= row_start) & (rows < row_stop)
            if tombstones.size:
                keep &= ~self._hides(edges, tombstones)
            runs.append((edges[keep], weights[keep]))
        rows = self._extra_edges[:, 0]
        mine = (rows >= row_start) & (rows < row_stop) & (self._extra_weights > 0)
        runs.append((self._extra_edges[mine], self._extra_weights[mine]))
        runs = [run for run in runs if run[1].size]
        if len(runs) <= 1:
            return runs[0] if runs else _empty_pairs()
        return (
            np.concatenate([e for e, _ in runs], axis=0),
            np.concatenate([w for _, w in runs]),
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance (the overlay)
    # ------------------------------------------------------------------ #
    def add_hyperedge(
        self, new_id: int, size: int, pair_ids: np.ndarray, pair_weights: np.ndarray
    ) -> None:
        """Register a new hyperedge and append its overlap row to the overlay.

        ``pair_ids``/``pair_weights`` are the overlaps of the new edge with
        existing hyperedges (from :func:`overlap_counts_for_members`).  The
        row is refused — :class:`ValidationError`, nothing changed — as a
        folded log refuses it: columns of different lengths, a weight below
        1, an ID that does not exist or was removed, or IDs that do not
        strictly ascend (a repeated ID would count its pair twice).
        """
        if new_id != self.num_hyperedges:
            raise ValidationError(
                f"new hyperedge ID must be {self.num_hyperedges}, got {new_id}"
            )
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        pair_weights = np.asarray(pair_weights, dtype=np.int64)
        if pair_ids.size != pair_weights.size:
            raise ValidationError(
                f"add of hyperedge {new_id} has {pair_ids.size} pair IDs "
                f"but {pair_weights.size} pair weights"
            )
        if pair_ids.size:
            if int(pair_weights.min()) < 1:
                raise ValidationError("overlap weights must be >= 1")
            if int(pair_ids.max()) >= self.num_hyperedges or int(pair_ids.min()) < 0:
                raise ValidationError("pair IDs must reference existing hyperedges")
            if (pair_ids[1:] <= pair_ids[:-1]).any():
                raise ValidationError("pair IDs must strictly ascend")
            removed = self._removed
            hit = np.searchsorted(removed, pair_ids).clip(max=removed.size - 1)
            if removed.size and (removed[hit] == pair_ids).any():
                raise ValidationError("pair IDs must reference live hyperedges")
        # Every buffer below doubles its capacity when full, so an add costs
        # amortised O(its row), not a copy of every size or overlay pair.
        start = self._extra_count
        stop = start + pair_ids.size
        if pair_ids.size:
            self._edges_buffer = _reserve(self._edges_buffer, start, stop)
            self._weights_buffer = _reserve(self._weights_buffer, start, stop)
            self._next = _reserve(self._next, start, stop)
            # The new edge has the largest ID, so pairs are (existing, new).
            self._edges_buffer[start:stop, 0] = pair_ids
            self._edges_buffer[start:stop, 1] = new_id
            self._weights_buffer[start:stop] = pair_weights
            self._extra_count = stop
            self._view_overlay()
            self._link(start, stop)
            counts = np.bincount(pair_weights)
            if counts.size > self._histogram.size:
                self._histogram = np.append(
                    self._histogram, np.zeros(counts.size - self._histogram.size, np.int64)
                )
            self._histogram[: counts.size] += counts
        own = new_id - self._base_hyperedges
        self._rows = _reserve(self._rows, own + 1, own + 2)
        self._rows[own + 1] = stop
        self._heads = _reserve(self._heads, new_id, new_id + 1, fill=-1)
        # ``_edge_sizes`` views the buffer's first num_hyperedges entries.
        self._sizes_buffer = _reserve(self._sizes_buffer, new_id, new_id + 1)
        self._sizes_buffer[new_id] = max(int(size), 0)
        self._edge_sizes = self._sizes_buffer[: new_id + 1]

    def remove_hyperedge(self, edge_id: int) -> None:
        """Tombstone ``edge_id``: retire its overlay pairs, hide its base
        pairs and zero its size.

        Only the edge's own overlay rows are read (:meth:`_overlay_rows`);
        each live one drops to weight 0 and out of the histogram.  The ID
        slot is kept so all other hyperedge IDs — and every cached result
        that does not involve ``edge_id`` — remain valid.  Removing it
        again changes nothing.
        """
        if edge_id < 0 or edge_id >= self.num_hyperedges:
            raise ValidationError(
                f"hyperedge ID {edge_id} out of range [0, {self.num_hyperedges})"
            )
        rows = self._overlay_rows(edge_id)
        weights = self._weights_buffer[rows]
        live = weights > 0
        if live.any():
            np.subtract.at(self._histogram, weights[live], 1)
            self._weights_buffer[rows[live]] = 0
        # No later add may name a removed ID: its chain is done with.
        self._heads[edge_id] = -1
        at = int(np.searchsorted(self._removed, edge_id))
        if at == self._removed.size or self._removed[at] != edge_id:
            self._removed = np.insert(self._removed, at, np.int64(edge_id))
            if edge_id < self._base_hyperedges:
                self._hidden_cache = None
        self._edge_sizes[edge_id] = 0

    def close(self) -> None:
        """Release what reading the base holds open: nothing for the
        in-memory segment; a store's index drops its mapped shards."""

    def apply_overlay(self, overlay) -> None:
        """Install a folded write-ahead log as the overlay of a fresh index.

        ``overlay`` is a :class:`~repro.store.overlay.WalOverlay`: the
        batched equivalent of replaying the log through
        :meth:`add_hyperedge` / :meth:`remove_hyperedge`, whose appended
        pairs, tombstones and size array are adopted as folded — copied
        into the index's own buffers, which later updates write through.
        """
        self._removed = np.array(overlay.removed, dtype=np.int64)
        self._sizes_buffer = self._edge_sizes = np.array(overlay.edge_sizes, dtype=np.int64)
        self._hidden_cache = None
        self._start_overlay(overlay.edges, overlay.weights)

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_hyperedges={self.num_hyperedges}, "
            f"num_pairs={self.num_pairs}, max_weight={self.max_weight})"
        )

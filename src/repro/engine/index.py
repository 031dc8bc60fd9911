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
both O(the edge's row), never a recount.  A store's write-ahead log,
folded, installs as the same overlay (:meth:`OverlapIndex.apply_overlay`),
and :func:`~repro.store.snapshot.write_snapshot` folds base plus overlay
back into segments on disk.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, NamedTuple, Sequence, Tuple, Union

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
    pair order, then a stable sort of the weights in that order.  Every
    writer of a snapshot must share it for shard bytes to agree.
    """
    order = pair_order(edges)
    return order.take(np.argsort(weights.take(order), kind="stable"))


def _empty_pairs() -> Pairs:
    return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)


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
        # Overlay: appended pairs (update order), tombstoned IDs (sorted), and
        # how many base pairs of each weight the tombstones hide (lazily).
        self._extra_edges, self._extra_weights = _empty_pairs()
        self._removed = np.empty(0, dtype=np.int64)
        self._hidden_cache = None

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
        return base - hidden + int(self._extra_weights.size)

    @property
    def num_hyperedges(self) -> int:
        """Size of the hyperedge-ID space the pairs are defined over."""
        return int(self._edge_sizes.size)

    @property
    def max_weight(self) -> int:
        """Largest live pairwise overlap — the largest s with a non-empty ``L_s``."""
        top = max((segment.max_weight for segment in self._segments), default=0)
        if self._extra_weights.size:
            top = max(top, int(self._extra_weights.max()))
        return int(np.count_nonzero(self.edge_counts(range(1, top + 1))))

    @property
    def edge_sizes(self) -> np.ndarray:
        """Per-hyperedge sizes (tombstones at 0), exactly
        :attr:`num_hyperedges` of them."""
        return self._edge_sizes

    def nbytes(self) -> int:
        """Bytes of the pair store — base and overlay pairs at 24 bytes each
        (an int64 ``(i, j)`` and weight) — plus the size array."""
        held = sum(segment.num_pairs for segment in self._segments)
        return 24 * (held + int(self._extra_weights.size)) + int(self._edge_sizes.nbytes)

    # ------------------------------------------------------------------ #
    # Threshold views
    # ------------------------------------------------------------------ #
    def _slices(self, s: int) -> Iterator[Pairs]:
        """Stream the live ``weight >= s`` pairs: one binary-searched slice
        per base segment, tombstoned pairs dropped, then the overlay's."""
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
        overlay's.
        """
        s_values = np.asarray(s_values, dtype=np.int64)
        totals = np.zeros(s_values.size, dtype=np.int64)
        lowest = int(s_values.min()) if s_values.size else 1
        for _, weights in self._read(lowest):
            totals += weights.shape[0] - np.searchsorted(weights, s_values, side="left")
        if self._tombstones().size:
            totals -= at_least(self._hidden_by_weight(), s_values)
        if self._extra_weights.size:
            totals += at_least(np.bincount(self._extra_weights), s_values)
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

    def pairs_in_rows(self, row_start: int, row_stop: int) -> Tuple[Pairs, Pairs]:
        """The live pairs ``(i, j)`` with ``row_start <= i < row_stop``: the
        base's, in segment order, and the overlay's, in update order — the
        parts a snapshot block is written from.

        Only segments whose rows overlap the range are read; pairs of one
        segment come out as that segment's weight-ascending run.
        """
        tombstones = self._tombstones()
        runs = [_empty_pairs()]
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
        if len(runs) == 2:
            base = runs.pop()
        else:
            base = (
                np.concatenate([e for e, _ in runs], axis=0),
                np.concatenate([w for _, w in runs]),
            )
        del runs  # a block's bound is one copy of it: drop the pieces
        rows = self._extra_edges[:, 0]
        mine = (rows >= row_start) & (rows < row_stop)
        return base, (self._extra_edges[mine], self._extra_weights[mine])

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
        1, or an ID that does not exist or was removed.
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
            if np.isin(pair_ids, self._removed).any():
                raise ValidationError("pair IDs must reference live hyperedges")
            # The new edge has the largest ID, so pairs are (existing, new).
            new_pairs = np.column_stack(
                [pair_ids, np.full(pair_ids.size, new_id, dtype=np.int64)]
            )
            self._extra_edges = np.concatenate([self._extra_edges, new_pairs], axis=0)
            self._extra_weights = np.concatenate([self._extra_weights, pair_weights])
        # ``_edge_sizes`` views the buffer's first num_hyperedges entries; the
        # buffer's capacity doubles when full, so an add costs amortised
        # O(1), not a copy of every size.
        if new_id == self._sizes_buffer.size:
            grown = np.empty(max(2 * new_id, 16), dtype=np.int64)
            grown[:new_id] = self._edge_sizes
            self._sizes_buffer = grown
        self._sizes_buffer[new_id] = max(int(size), 0)
        self._edge_sizes = self._sizes_buffer[: new_id + 1]

    def remove_hyperedge(self, edge_id: int) -> None:
        """Tombstone ``edge_id``: drop its overlay pairs, hide its base pairs
        and zero its size.

        The ID slot is kept so all other hyperedge IDs — and every cached
        result that does not involve ``edge_id`` — remain valid.  Removing
        it again changes nothing.
        """
        if edge_id < 0 or edge_id >= self.num_hyperedges:
            raise ValidationError(
                f"hyperedge ID {edge_id} out of range [0, {self.num_hyperedges})"
            )
        if self._extra_weights.size:
            keep = (self._extra_edges[:, 0] != edge_id) & (
                self._extra_edges[:, 1] != edge_id
            )
            if not keep.all():
                self._extra_edges = self._extra_edges[keep]
                self._extra_weights = self._extra_weights[keep]
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
        pairs, tombstones and size array are adopted as folded.
        """
        self._extra_edges = overlay.edges
        self._extra_weights = overlay.weights
        self._removed = overlay.removed
        self._sizes_buffer = self._edge_sizes = overlay.edge_sizes
        self._hidden_cache = None

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_hyperedges={self.num_hyperedges}, "
            f"num_pairs={self.num_pairs}, max_weight={self.max_weight})"
        )

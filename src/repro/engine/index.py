"""The overlap index: compute the weighted overlap structure once, serve any s.

Section II-B of the paper defines the s-line graph as a Boolean filtration
of one weighted structure: ``L_s[i, j] = 1  iff  (H^T H)[i, j] >= s``.
Every s-line graph of a hypergraph is therefore a *threshold view* of the
same set of weighted overlap pairs.  :class:`OverlapIndex` materialises that
observation: it enumerates all pairwise overlaps once — reusing the
registered Stage-3 algorithms at ``s = 1`` — and stores them in CSR-style
flat arrays sorted ascending by weight.  ``L_s`` for *any* s is
then a binary-search slice of the weight array plus a vectorised
:func:`~repro.core.filtration.filter_weighted_arrays` — no recomputation.

The index also supports incremental maintenance: adding a hyperedge only
walks the wedges of the new edge, and removing one only drops its incident
pairs — both O(affected rows), never a full recount.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.filtration import filter_weighted_arrays
from repro.core.slinegraph import SLineGraph, pair_order
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.overlay import OverlayHypergraph
from repro.utils.validation import ValidationError, check_s_value

#: The Stage-3 kernel every index build runs unless a caller names another:
#: the block kernel of :mod:`repro.core.algorithms.vectorized`.  Written
#: once — the engine, the store, the service and the CLI import it — and
#: recorded in each snapshot manifest as provenance.
BUILD_ALGORITHM = "vectorized"


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
    """The permutation into the pair store's base order: ascending weight,
    ties by (i, j) — pair order, then a stable sort of the weights in that
    order.  Every writer of a snapshot must share it for shard bytes to
    agree.
    """
    order = pair_order(edges)
    return order.take(np.argsort(weights.take(order), kind="stable"))


def insert_by_weight(
    edges: np.ndarray,
    weights: np.ndarray,
    new_edges: np.ndarray,
    new_weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge weight-ascending ``new`` pairs into a weight-ascending pair store.

    Each new pair lands *in front of* the stored pairs of equal weight, new
    pairs that tie keep their given order — the store's update order, which
    every writer of the pair arrays must share for snapshots to agree byte
    for byte.  One binary search plus one ``np.insert`` per array.
    """
    positions = np.searchsorted(weights, new_weights, side="left")
    return (
        np.insert(edges, positions, new_edges, axis=0),
        np.insert(weights, positions, new_weights),
    )


class OverlapIndex:
    """All pairwise hyperedge overlaps of a hypergraph, sorted by weight.

    Attributes
    ----------
    edges:
        ``(k, 2)`` int64 array of overlap pairs ``(i, j)`` with ``i < j``,
        sorted ascending by weight (ties by pair for determinism).
    weights:
        Length-``k`` int64 array of exact overlap counts, ascending.
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
        self._edges = edges.take(order, axis=0)
        self._weights = weights.take(order)
        self._edge_sizes = np.asarray(edge_sizes, dtype=np.int64).copy()
        self.algorithm = algorithm

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
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
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_pairs(self) -> int:
        """Number of stored overlap pairs (edges of the 1-line graph)."""
        return int(self._weights.size)

    @property
    def num_hyperedges(self) -> int:
        """Size of the hyperedge-ID space the pairs are defined over."""
        return int(self._edge_sizes.size)

    @property
    def max_weight(self) -> int:
        """Largest pairwise overlap — the largest s with a non-empty ``L_s``."""
        return int(self._weights[-1]) if self._weights.size else 0

    @property
    def edge_sizes(self) -> np.ndarray:
        """Per-hyperedge sizes (read-only view)."""
        return self._edge_sizes

    def nbytes(self) -> int:
        """Memory footprint of the pair store in bytes."""
        return int(
            self._edges.nbytes + self._weights.nbytes + self._edge_sizes.nbytes
        )

    # ------------------------------------------------------------------ #
    # Threshold views
    # ------------------------------------------------------------------ #
    def pairs_at_least(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs with overlap ``>= s`` as ``(edges_view, weights_view)``.

        A binary search on the ascending weight array — O(log k) to locate
        the slice, zero copies.
        """
        s = check_s_value(s)
        lo = int(np.searchsorted(self._weights, s, side="left"))
        return self._edges[lo:], self._weights[lo:]

    def edge_count(self, s: int) -> int:
        """Number of edges of ``L_s`` without materialising the graph."""
        return int(self.edge_counts([check_s_value(s)])[0])

    def edge_counts(self, s_values: Sequence[int]) -> np.ndarray:
        """:meth:`edge_count` of every threshold in ``s_values`` (each
        ``>= 1``): one binary search each, nothing materialised."""
        s_values = np.asarray(s_values, dtype=np.int64)
        return self.num_pairs - np.searchsorted(self._weights, s_values, side="left")

    def active_vertices(self, s: int) -> np.ndarray:
        """The vertex set ``E_s``: hyperedges with ``|e| >= s``."""
        s = check_s_value(s)
        return np.flatnonzero(self._edge_sizes >= s).astype(np.int64)

    def line_graph(self, s: int) -> SLineGraph:
        """``L_s(H)`` as a threshold view: slice + vectorised filtration.

        The overlap counts are never recomputed.  The store is
        weight-ordered, not pair-ordered, so the :class:`SLineGraph`
        constructor re-canonicalises the slice — one packed-key sort over
        runs that are already pair-sorted within each weight (~7 ms for
        215k pairs at s = 1; the coo→csr conversion that follows costs as
        much).
        """
        s = check_s_value(s)
        edges, weights = self.pairs_at_least(s)
        return filter_weighted_arrays(
            edges,
            weights,
            s,
            num_hyperedges=self.num_hyperedges,
            active_vertices=self.active_vertices(s),
        )

    def s_profile(self) -> Dict[int, int]:
        """``s -> |edges of L_s|`` for every s in ``1..max_weight`` (Figure 4)."""
        s_values = range(1, self.max_weight + 1)
        return dict(zip(s_values, self.edge_counts(s_values).tolist()))

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def add_hyperedge(
        self, new_id: int, size: int, pair_ids: np.ndarray, pair_weights: np.ndarray
    ) -> None:
        """Register a new hyperedge and merge its overlap row into the index.

        ``pair_ids``/``pair_weights`` are the overlaps of the new edge with
        existing hyperedges (from :func:`overlap_counts_for_members`).  The
        merge keeps the weight-sorted invariant by binary-search insertion —
        O(existing pairs + new pairs), never a recount.
        """
        if new_id != self.num_hyperedges:
            raise ValidationError(
                f"new hyperedge ID must be {self.num_hyperedges}, got {new_id}"
            )
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        pair_weights = np.asarray(pair_weights, dtype=np.int64)
        if pair_ids.size:
            if int(pair_ids.max()) >= self.num_hyperedges or int(pair_ids.min()) < 0:
                raise ValidationError("pair IDs must reference existing hyperedges")
            # The incoming row must itself be weight-ascending: np.insert
            # places values that land at the same position in *given* order,
            # so an unsorted row would corrupt the binary-search invariant.
            order = np.argsort(pair_weights, kind="stable")
            pair_ids = pair_ids[order]
            pair_weights = pair_weights[order]
            # The new edge has the largest ID, so pairs are (existing, new).
            new_pairs = np.column_stack(
                [pair_ids, np.full(pair_ids.size, new_id, dtype=np.int64)]
            )
            self._edges, self._weights = insert_by_weight(
                self._edges, self._weights, new_pairs, pair_weights
            )
        self._edge_sizes = np.append(self._edge_sizes, np.int64(max(int(size), 0)))

    def remove_hyperedge(self, edge_id: int) -> None:
        """Drop every pair incident to ``edge_id`` and zero its size.

        The ID slot is kept (tombstoned at size 0) so all other hyperedge
        IDs — and every cached result that does not involve ``edge_id`` —
        remain valid.
        """
        if edge_id < 0 or edge_id >= self.num_hyperedges:
            raise ValidationError(
                f"hyperedge ID {edge_id} out of range [0, {self.num_hyperedges})"
            )
        keep = (self._edges[:, 0] != edge_id) & (self._edges[:, 1] != edge_id)
        if not keep.all():
            self._edges = self._edges[keep]
            self._weights = self._weights[keep]
        self._edge_sizes[edge_id] = 0

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OverlapIndex(num_hyperedges={self.num_hyperedges}, "
            f"num_pairs={self.num_pairs}, max_weight={self.max_weight})"
        )

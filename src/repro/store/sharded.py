"""Out-of-core threshold views over a sharded snapshot.

:class:`ShardedIndex` is the index every store-backed engine serves from —
same query/update surface as the in-memory build product
:class:`~repro.engine.index.OverlapIndex`, without ever materialising the
full pair store: shards are opened lazily as
``np.load(mmap_mode="r")`` views (at most ``max_resident_shards`` handles are
kept, LRU), and every query streams per-shard weight slices.  Because each
shard keeps the ascending-weight invariant, ``weight >= s`` is one binary
search per shard, and shards whose recorded ``max_weight`` is below ``s``
are skipped without touching disk — so a hypergraph whose full overlap
structure exceeds RAM still serves ``line_graph(s)`` / ``sweep()``.

Incremental updates are held as an in-memory overlay (appended pairs,
tombstoned hyperedges, refreshed sizes) merged into every query — the
replayed image of a write-ahead log on top of an immutable base snapshot.
The overlay is all it keeps: pair count and largest weight are read off
:meth:`ShardedIndex.edge_counts` and one histogram of tombstoned pairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.failpoints import STORE_SHARD_LOAD
from repro.core.slinegraph import SLineGraph
from repro.engine.cache import LRUCache
from repro.engine.index import at_least
from repro.obs import get_tracer
from repro.store.format import Manifest, PathLike, StoreFormatError, read_manifest
from repro.store.overlay import WalOverlay
from repro.store.snapshot import load_edge_sizes, load_shard
from repro.utils.validation import ValidationError, check_s_value


class ShardedIndex:
    """Lazily loaded, shard-streaming view of a persistent overlap index.

    Parameters
    ----------
    store_path:
        Store directory holding ``manifest.json`` and the shard files.
    manifest:
        Pre-read manifest (read from ``store_path`` when omitted).
    max_resident_shards:
        Upper bound on simultaneously open shard mmaps; the least recently
        used handle is dropped when exceeded.  ``None`` keeps all open.
    """

    def __init__(
        self,
        store_path: PathLike,
        manifest: Optional[Manifest] = None,
        max_resident_shards: Optional[int] = None,
    ) -> None:
        self._path = str(store_path)
        self._manifest = manifest if manifest is not None else read_manifest(store_path)
        if max_resident_shards is not None and max_resident_shards < 1:
            raise ValidationError("max_resident_shards must be >= 1 or None")
        # Residency is the one structure concurrent *reader* threads race
        # on (the service layer fans queries over a thread pool); the
        # cache's lock covers only the LRU bookkeeping, never the shard
        # file I/O.  Overlay mutations (add/remove) remain single-writer
        # territory, serialised by the service's readers-writer lock.
        self._resident = LRUCache(
            maxsize=max_resident_shards or self.num_shards or 1,
            metrics_label="shards",
        )
        self._edge_sizes = load_edge_sizes(self._path, self._manifest)
        self._tracer = get_tracer()
        # WAL overlay: appended pairs and tombstoned IDs.
        self._extra_edges = np.empty((0, 2), dtype=np.int64)
        self._extra_weights = np.empty(0, dtype=np.int64)
        self._removed = np.empty(0, dtype=np.int64)  # sorted base-edge IDs
        self._hidden_cache: Optional[np.ndarray] = None
        self.algorithm = self._manifest.algorithm

    # ------------------------------------------------------------------ #
    # Shape (OverlapIndex drop-in surface)
    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> Manifest:
        return self._manifest

    @property
    def num_shards(self) -> int:
        return len(self._manifest.shards)

    @property
    def num_resident_shards(self) -> int:
        """Currently open shard handles (<= ``max_resident_shards``)."""
        return len(self._resident)

    @property
    def shard_loads(self) -> int:
        """Shard file loads so far: one per residency miss (observability / tests)."""
        return self._resident.misses

    @property
    def num_pairs(self) -> int:
        """Manifest + overlay pairs, less those tombstones hide (no shard read if none)."""
        hidden = int(self._hidden_by_weight().sum()) if self._removed.size else 0
        return self._manifest.num_pairs + int(self._extra_weights.size) - hidden

    @property
    def num_hyperedges(self) -> int:
        return int(self._edge_sizes.size)

    @property
    def edge_sizes(self) -> np.ndarray:
        return self._edge_sizes

    @property
    def max_weight(self) -> int:
        """The largest s with a non-empty ``L_s``: the thresholds still counting a pair."""
        top = self._manifest.max_weight
        if self._extra_weights.size:
            top = max(top, int(self._extra_weights.max()))
        return int(np.count_nonzero(self.edge_counts(range(1, top + 1))))

    # ------------------------------------------------------------------ #
    # Shard residency
    # ------------------------------------------------------------------ #
    def _shard_arrays(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray]:
        arrays = self._resident.get(shard_id)
        if arrays is None:
            # Two threads may both miss and load the same shard; the mmaps
            # are identical views, the second insert replaces the first.
            with self._tracer.start_span("store.shard_load", {"shard_id": shard_id}):
                STORE_SHARD_LOAD.fire()
                arrays = load_shard(self._path, self._manifest.shards[shard_id])
            self._resident.put(shard_id, arrays)
        return arrays

    def _iter_filtered(self, s: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream ``(edges, weights)`` slices with ``weight >= s``, overlay applied."""
        removed = self._removed
        for info in self._manifest.shards:
            if info.num_pairs == 0 or info.max_weight < s:
                continue  # pruned via manifest metadata: no disk touch
            edges, weights = self._shard_arrays(info.shard_id)
            lo = int(np.searchsorted(weights, s, side="left"))
            if lo >= weights.shape[0]:
                continue
            e, w = edges[lo:], weights[lo:]
            if removed.size:
                keep = ~(
                    np.isin(e[:, 0], removed) | np.isin(e[:, 1], removed)
                )
                if not np.all(keep):
                    e, w = e[keep], w[keep]
            if w.size:
                yield e, w
        if self._extra_weights.size:
            mask = self._extra_weights >= s
            if np.any(mask):
                yield self._extra_edges[mask], self._extra_weights[mask]

    # ------------------------------------------------------------------ #
    # Threshold views
    # ------------------------------------------------------------------ #
    def pairs_at_least(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """All surviving pairs with overlap ``>= s`` (materialised slices).

        Only the filtered output is concatenated in memory; the base pair
        store itself stays on disk.
        """
        s = check_s_value(s)
        parts = list(self._iter_filtered(s))
        if not parts:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        edges = np.concatenate([np.asarray(e) for e, _ in parts], axis=0)
        weights = np.concatenate([np.asarray(w) for _, w in parts])
        return edges, weights

    def edge_count(self, s: int) -> int:
        """``|edges of L_s|`` without materialising the graph."""
        return int(self.edge_counts([check_s_value(s)])[0])

    def edge_counts(self, s_values: Sequence[int]) -> np.ndarray:
        """:meth:`edge_count` of every threshold in ``s_values`` (each ``>= 1``).

        One binary search per shard and threshold on the (mmap) weight
        arrays — a shard whose ``max_weight`` is below every threshold costs
        nothing — less the base pairs of weight ``>= s`` that tombstones
        hide, plus the overlay's.
        """
        s_values = np.asarray(s_values, dtype=np.int64)
        totals = np.zeros(s_values.size, dtype=np.int64)
        lowest = int(s_values.min()) if s_values.size else 0
        for info in self._manifest.shards:
            if info.num_pairs == 0 or info.max_weight < lowest:
                continue
            _, weights = self._shard_arrays(info.shard_id)
            totals += weights.shape[0] - np.searchsorted(weights, s_values, side="left")
        if self._removed.size:
            totals -= at_least(self._hidden_by_weight(), s_values)
        if self._extra_weights.size:
            totals += at_least(np.bincount(self._extra_weights), s_values)
        return totals

    def _hidden_by_weight(self) -> np.ndarray:
        """How many base pairs of each weight the tombstones hide (index =
        weight), from one pass over the shards per set of tombstones.

        Counted when first asked for, not as each tombstone lands: reading
        the hidden pairs' weights pages the weight files in, and a writer
        that never counts (a follower's source) should not hold them.
        """
        if self._hidden_cache is None:
            hidden = [np.empty(0, dtype=np.int64)]
            for info in self._manifest.shards:
                if info.num_pairs:
                    edges, weights = self._shard_arrays(info.shard_id)
                    hit = np.isin(edges[:, 0], self._removed) | np.isin(
                        edges[:, 1], self._removed
                    )
                    hidden.append(np.asarray(weights[hit], dtype=np.int64))
            self._hidden_cache = np.bincount(np.concatenate(hidden))
        return self._hidden_cache

    def active_vertices(self, s: int) -> np.ndarray:
        """The vertex set ``E_s``: hyperedges with ``|e| >= s``."""
        s = check_s_value(s)
        return np.flatnonzero(self._edge_sizes >= s).astype(np.int64)

    def line_graph(self, s: int) -> SLineGraph:
        """``L_s(H)`` streamed from the shard slices (plus the overlay).

        The slices already are the ``weight >= s`` cut, so they go to the
        full :class:`SLineGraph` constructor as they are.  A row it rejects
        — a self-loop, an endpoint out of range, a weight below ``s`` in a
        file that must be ascending — came from the store, not from the
        caller, and is reported as a damaged store.
        """
        s = check_s_value(s)
        edges, weights = self.pairs_at_least(s)
        try:
            return SLineGraph(s, edges, weights, self.num_hyperedges, self.active_vertices(s))
        except ValidationError as exc:
            raise StoreFormatError(
                f"store {self._path!r} generation {self._manifest.generation} "
                f"holds invalid pair rows: {exc}"
            ) from exc

    def sweep(self, s_values: Iterable[int]) -> Dict[int, SLineGraph]:
        """``s -> L_s`` for a batch of thresholds from *one* shard pass.

        Builds :meth:`line_graph` at the smallest requested threshold —
        one stream over the shards, one canonicalisation, every check —
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
        """``s -> |edges of L_s|`` for every s in ``1..max_weight``."""
        s_values = range(1, self.max_weight + 1)
        return dict(zip(s_values, self.edge_counts(s_values).tolist()))

    # ------------------------------------------------------------------ #
    # Incremental maintenance (WAL overlay)
    # ------------------------------------------------------------------ #
    def add_hyperedge(
        self, new_id: int, size: int, pair_ids: np.ndarray, pair_weights: np.ndarray
    ) -> None:
        """Merge a new hyperedge's overlap row into the in-memory overlay."""
        if new_id != self.num_hyperedges:
            raise ValidationError(
                f"new hyperedge ID must be {self.num_hyperedges}, got {new_id}"
            )
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        pair_weights = np.asarray(pair_weights, dtype=np.int64)
        if pair_ids.size:
            if int(pair_ids.max()) >= self.num_hyperedges or int(pair_ids.min()) < 0:
                raise ValidationError("pair IDs must reference existing hyperedges")
            if self._removed.size and np.any(np.isin(pair_ids, self._removed)):
                raise ValidationError("pair IDs must reference live hyperedges")
            new_pairs = np.column_stack(
                [pair_ids, np.full(pair_ids.size, new_id, dtype=np.int64)]
            )
            self._extra_edges = np.concatenate([self._extra_edges, new_pairs], axis=0)
            self._extra_weights = np.concatenate([self._extra_weights, pair_weights])
        self._edge_sizes = np.append(self._edge_sizes, np.int64(max(int(size), 0)))

    def remove_hyperedge(self, edge_id: int) -> None:
        """Tombstone ``edge_id``: drop its overlay pairs, mask its base pairs."""
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
        if edge_id < self._manifest.num_hyperedges and not np.any(
            self._removed == edge_id
        ):
            self._removed = np.sort(np.append(self._removed, np.int64(edge_id)))
            self._hidden_cache = None
        self._edge_sizes[edge_id] = 0

    def apply_overlay(self, overlay: WalOverlay) -> None:
        """Install a folded write-ahead log as the overlay of a fresh index.

        The batched equivalent of replaying the log through
        :meth:`add_hyperedge` / :meth:`remove_hyperedge`: the appended
        pairs, tombstones and size array are adopted as folded.
        """
        self._extra_edges = overlay.edges
        self._extra_weights = overlay.weights
        self._removed = overlay.removed
        self._edge_sizes = overlay.edge_sizes
        self._hidden_cache = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop every resident shard handle (mmaps close with them).

        The index stays usable — a later query simply re-opens the shards
        it touches — so ``close()`` is a resource release, not a terminal
        state.  Callers that replace an index (the read replica's hot
        swap) use it to return file handles eagerly instead of waiting for
        garbage collection.
        """
        self._resident.clear()

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedIndex(path={self._path!r}, num_shards={self.num_shards}, "
            f"num_hyperedges={self.num_hyperedges}, num_pairs={self.num_pairs})"
        )

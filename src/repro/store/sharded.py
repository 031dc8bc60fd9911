"""The overlap index of a store: a snapshot's shards as the index's segments.

:class:`ShardedIndex` is the index every store-backed engine serves from.
It *is* an :class:`~repro.engine.index.OverlapIndex` — every query and
update, the overlay and the snapshot writer's view are written once there
— whose base segments are the snapshot's shards, described by the
manifest and opened lazily as ``np.load(mmap_mode="r")`` views.  Only what
is about files lives here:

* the manifest's shard rows are the segments, so a query skips a shard
  whose recorded ``max_weight`` is below ``s`` without touching disk;
* at most ``max_resident_shards`` shard handles stay open (LRU), each
  fault-in traced as a ``store.shard_load`` span behind its failpoint;
* :meth:`ShardedIndex.close` releases them, and
  :attr:`ShardedIndex.shard_loads` counts them;
* a row the :class:`~repro.core.slinegraph.SLineGraph` constructor refuses
  came from the store, so it is reported as a damaged store
  (:class:`~repro.store.format.StoreFormatError`).

A hypergraph whose full overlap structure exceeds RAM therefore still
serves ``line_graph(s)`` / ``sweep()``.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.failpoints import STORE_SHARD_LOAD
from repro.engine.cache import LRUCache
from repro.engine.index import OverlapIndex, Pairs
from repro.obs import get_tracer
from repro.store.format import (
    Manifest,
    PathLike,
    ShardInfo,
    StoreFormatError,
    read_manifest,
)
from repro.store.snapshot import load_edge_sizes, load_shard
from repro.utils.validation import ValidationError


class ShardedIndex(OverlapIndex):
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
        self._tracer = get_tracer()
        self._start(
            self._manifest.shards,
            load_edge_sizes(self._path, self._manifest),
            self._manifest.algorithm,
        )

    @property
    def manifest(self) -> Manifest:
        """The manifest of the snapshot generation this index reads."""
        return self._manifest

    @property
    def num_shards(self) -> int:
        """Number of shards (base segments) in the snapshot."""
        return len(self._manifest.shards)

    @property
    def num_resident_shards(self) -> int:
        """Currently open shard handles (<= ``max_resident_shards``)."""
        return len(self._resident)

    @property
    def shard_loads(self) -> int:
        """Shard file loads so far: one per residency miss (observability / tests)."""
        return self._resident.misses

    def _load(self, segment: ShardInfo) -> Pairs:
        """One shard's mmap'd arrays, from the residency cache or the disk."""
        arrays = self._resident.get(segment.shard_id)
        if arrays is None:
            # Two threads may both miss and load the same shard; the mmaps
            # are identical views, the second insert replaces the first.
            with self._tracer.start_span("store.shard_load", {"shard_id": segment.shard_id}):
                STORE_SHARD_LOAD.fire()
                arrays = load_shard(self._path, segment)
            self._resident.put(segment.shard_id, arrays)
        return arrays

    def _reject(self, error: ValidationError) -> None:
        """A refused row — a self-loop, an endpoint out of range, a weight
        below ``s`` in a file that must be ascending — came from the store,
        not from the caller: report a damaged store."""
        raise StoreFormatError(
            f"store {self._path!r} generation {self._manifest.generation} "
            f"holds invalid pair rows: {error}"
        ) from error

    def close(self) -> None:
        """Drop every resident shard handle (mmaps close with them).

        The index stays usable — a later query simply re-opens the shards
        it touches — so ``close()`` is a resource release, not a terminal
        state.  Callers that replace an index (the read replica's hot
        swap) use it to return file handles eagerly instead of waiting for
        garbage collection.
        """
        self._resident.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedIndex(path={self._path!r}, num_shards={self.num_shards}, "
            f"num_hyperedges={self.num_hyperedges}, num_pairs={self.num_pairs})"
        )

"""A query engine whose overlap index lives on disk.

:class:`PersistentQueryEngine` is a :class:`~repro.engine.engine.QueryEngine`
whose index is opened from (or built into) an :class:`~repro.store.IndexStore`
instead of being recomputed per process:

* **warm opens** — a process serving queries pays a manifest read plus mmap
  setup, never the wedge-enumeration pass;
* **durable updates** — every ``add_hyperedge`` / ``remove_hyperedge`` is
  appended to the store's write-ahead log *before* it is acknowledged, so a
  later process recovers the updated index without a rebuild;
* **out-of-core serving** — the engine streams threshold views from
  mmap'd shards (:class:`~repro.store.ShardedIndex`), so the full overlap
  structure never has to fit in RAM.
"""

from __future__ import annotations
from typing import Optional

from repro.engine.engine import QueryEngine
from repro.engine.index import BUILD_ALGORITHM
from repro.hypergraph.hypergraph import Hypergraph
from repro.store.format import PathLike
from repro.store.store import IndexStore
from repro.utils.validation import ValidationError


class PersistentQueryEngine(QueryEngine):
    """Store-backed query engine (see the module docstring).

    Construct via :meth:`open` or :meth:`build`; the plain constructor
    expects an already-opened :class:`IndexStore`.  The served hypergraph is
    always the store's own copy (:meth:`IndexStore.load_hypergraph`, which
    refuses a copy inconsistent with the snapshot and log).
    """

    def __init__(
        self,
        store: IndexStore,
        max_resident_shards: Optional[int] = None,
        cache_size: int = 256,
    ) -> None:
        h = store.load_hypergraph()
        index = store.sharded_index(max_resident_shards=max_resident_shards)
        super().__init__(
            h,
            algorithm=index.algorithm or BUILD_ALGORITHM,
            cache_size=cache_size,
            index=index,
        )
        self.store = store
        self._max_resident_shards = max_resident_shards

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: PathLike, read_only: bool = False):
        """Open an existing store (recovering its WAL) and serve from it.

        ``read_only=True`` opens a non-truncating, never-writing handle
        suitable for concurrent reader processes; updates raise
        :class:`repro.store.ReadOnlyStoreError` before any in-memory state
        is touched.
        """
        return cls(IndexStore.open(path, read_only=read_only))

    @classmethod
    def build(
        cls,
        h: Hypergraph,
        path: PathLike,
        num_shards: int = 4,
    ):
        """Build a fresh store for ``h`` at ``path`` and serve from it."""
        return cls(IndexStore.build(h, path, num_shards=num_shards))

    # ------------------------------------------------------------------ #
    # Updates (guarded up front so read-only handles never mutate the
    # in-memory index before the store would reject the WAL append)
    # ------------------------------------------------------------------ #
    def add_hyperedge(self, members, name=None) -> int:
        """:meth:`QueryEngine.add_hyperedge`, WAL-logged before it returns
        (:class:`~repro.store.ReadOnlyStoreError` on a read-only handle, nothing changed)."""
        self.store.check_writable()
        return super().add_hyperedge(members, name)

    def remove_hyperedge(self, edge_id) -> None:
        """:meth:`QueryEngine.remove_hyperedge`, WAL-logged before it returns
        (:class:`~repro.store.ReadOnlyStoreError` on a read-only handle, nothing changed)."""
        self.store.check_writable()
        super().remove_hyperedge(edge_id)

    # ------------------------------------------------------------------ #
    # Durability hooks (called by QueryEngine after each update)
    # ------------------------------------------------------------------ #
    def _record_add(self, new_id, members, name, pair_ids, pair_weights) -> None:
        if pair_ids is None:
            raise ValidationError(
                "persistent engine updated without an overlap row (index "
                "was not loaded); this is a bug"
            )
        self.store.append_add(
            new_id,
            members,
            pair_ids,
            pair_weights,
            fingerprint=self.fingerprint(),
            name=None if name is None else str(name),
        )

    def _record_remove(self, edge_id) -> None:
        self.store.append_remove(edge_id, fingerprint=self.fingerprint())

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release file-backed resources (the index's mmap'd shard handles).

        Engines opened speculatively — e.g. by a read replica's refresh
        that then loses the install race — must be closed instead of
        dropped, or every superseded refresh leaks open shard mmaps until
        garbage collection gets around to them.
        """
        self._index.close()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def compact(self, num_shards: Optional[int] = None) -> None:
        """Fold the WAL into a fresh snapshot generation.

        The served index is re-opened against the new generation —
        compaction sweeps the old generation's shard files, so the
        mmap-streaming index must not keep referencing them.  Cached
        query results stay valid: compaction changes the representation,
        never the logical state (the fingerprint is unchanged).  The
        hypergraph overlay is folded into a new frozen base at the same
        time, so neither overlay outgrows one compaction interval.
        """
        self.store.check_writable()
        self.store.compact(num_shards=num_shards)
        self._fold_overlay()
        self.close()  # the superseded index maps files compaction just swept
        self._index = self.store.sharded_index(max_resident_shards=self._max_resident_shards)

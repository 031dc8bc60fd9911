"""Persistent sharded overlap-index store: snapshot + WAL + out-of-core views.

PR 1's :class:`~repro.engine.OverlapIndex` reified the paper's central
observation — every s-line graph is a threshold view of one weighted overlap
structure — but that structure died with the process.  This package makes it
the system's storage layer:

* :mod:`repro.store.format` / :mod:`repro.store.snapshot` — the versioned
  snapshot format and its one writer: an index's weight-sorted pairs,
  overlay folded in, partitioned into mmap-able row-block shards plus a
  JSON manifest (fingerprint, shard boundaries, format version, build
  provenance);
* :mod:`repro.store.wal` — a checksummed write-ahead log of incremental
  ``add`` / ``remove`` updates with torn-tail crash recovery;
* :mod:`repro.store.overlay` — that log folded once into arrays, so opens,
  replica refreshes and compaction apply it in one batched step;
* :class:`ShardedIndex` — the ``OverlapIndex`` of a store: the same
  queries, updates and overlay, with lazily mmap'd shards as its base
  segments, so threshold views stream out of core;
* :class:`IndexStore` — the directory manager (build / open / update /
  compact);
* :class:`PersistentQueryEngine` — a store-backed
  :class:`~repro.engine.QueryEngine` with durable updates and warm opens;
* :mod:`repro.store.replication` — mirror a whole store directory over
  the serving protocol (:class:`StoreMirror`): checksum-driven delta
  syncs, byte-identical copies, no shared filesystem required.
"""

from repro.store.format import (
    FORMAT_VERSION,
    Manifest,
    ReadOnlyStoreError,
    ShardInfo,
    StoreError,
    StoreFormatError,
    WriterAheadOfLogError,
    read_manifest,
)
from repro.store.persistent import PersistentQueryEngine
from repro.store.replication import (
    LocalReplicationSource,
    ReplicationError,
    ReplicationStaleError,
    StoreMirror,
    SyncReport,
)
from repro.store.sharded import ShardedIndex
from repro.store.snapshot import write_snapshot
from repro.store.store import IndexStore
from repro.store.wal import WalRecord, WriteAheadLog

__all__ = [
    "FORMAT_VERSION",
    "IndexStore",
    "LocalReplicationSource",
    "Manifest",
    "PersistentQueryEngine",
    "ReadOnlyStoreError",
    "ReplicationError",
    "ReplicationStaleError",
    "ShardInfo",
    "ShardedIndex",
    "StoreError",
    "StoreFormatError",
    "StoreMirror",
    "SyncReport",
    "WalRecord",
    "WriteAheadLog",
    "WriterAheadOfLogError",
    "read_manifest",
    "write_snapshot",
]

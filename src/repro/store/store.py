"""The store manager: one directory = snapshot + WAL + source hypergraph.

:class:`IndexStore` owns the lifecycle of a persistent overlap index:

* :meth:`IndexStore.build` computes the overlap structure once (via the
  Stage-3 algorithms) and lays down a sharded snapshot, the per-hyperedge
  sizes and the source hypergraph itself, so every store is a
  self-contained artefact any later process opens from its path alone;
* :meth:`IndexStore.open` validates the manifest's format version and
  recovers the write-ahead log, truncating any torn tail left by a crash;
* :meth:`append_add` / :meth:`append_remove` make incremental updates
  durable before they are acknowledged;
* :meth:`sharded_index` / :meth:`load_hypergraph` reconstruct the
  *current* state — base snapshot plus replayed log — as an out-of-core
  :class:`~repro.store.sharded.ShardedIndex` (the one index every
  store-backed engine serves from) and a
  :class:`~repro.hypergraph.hypergraph.Hypergraph`;
* :meth:`compact` folds the log back into a fresh snapshot generation and
  truncates it, keeping recovery O(log length) between compactions.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chaos.failpoints import STORE_COMPACT_FOLD, STORE_COMPACT_INSTALL
from repro.engine.index import BUILD_ALGORITHM, OverlapIndex
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.overlay import replay_rows
from repro.io.serialization import load_hypergraph_npz, save_hypergraph_npz
from repro.store.format import (
    HYPERGRAPH_NAME,
    Manifest,
    PathLike,
    ReadOnlyStoreError,
    SHARD_DIR,
    StoreError,
    StoreFormatError,
    WAL_NAME,
    fsync_path,
    manifest_path,
    read_manifest,
)
from repro.store.overlay import fold_records
from repro.store.sharded import ShardedIndex
from repro.store.snapshot import sweep_orphan_shards, write_snapshot
from repro.store.wal import OP_ADD, WalRecord, WriteAheadLog


def _next_generation(path: PathLike) -> int:
    """Generation for a snapshot written over ``path`` (0 when empty).

    Continues the existing store's sequence so that WAL records stamped
    with the superseded generation are recognisably stale.  Falls back to
    scanning shard file names when the old manifest is unreadable.
    """
    try:
        return read_manifest(path).generation + 1
    except StoreError:
        pass
    shard_dir = os.path.join(str(path), SHARD_DIR)
    best = -1
    if os.path.isdir(shard_dir):
        for name in os.listdir(shard_dir):
            if name.startswith("g") and "-" in name:
                prefix = name[1 : name.index("-")]
                if prefix.isdigit():
                    best = max(best, int(prefix))
    return best + 1


def _save_hypergraph_atomic(h: Hypergraph, path: str) -> None:
    """Write ``hypergraph.npz`` via temp-fsync-rename-fsync-dir so a crash
    mid-write can never clobber the store's only copy of the source
    hypergraph, and a completed write survives power loss."""
    tmp = path + ".tmp.npz"
    save_hypergraph_npz(h, tmp)
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_path(os.path.dirname(path) or ".")


def _replay_hypergraph(h: Hypergraph, records: List[WalRecord]) -> Hypergraph:
    """``h`` after every logged add and remove, built in one step by
    :func:`~repro.hypergraph.overlay.replay_rows` (the replay an engine's
    overlay materialises with)."""
    adds = [record for record in records if record.op == OP_ADD]
    return replay_rows(
        h,
        [np.asarray(record.payload["members"], dtype=np.int64) for record in adds],
        [record.payload.get("name") for record in adds],
        [record.edge_id for record in records if record.op != OP_ADD],
    )


class IndexStore:
    """Handle on one persistent overlap-index directory."""

    def __init__(
        self,
        path: PathLike,
        manifest: Optional[Manifest] = None,
        read_only: bool = False,
    ) -> None:
        self.path = str(path)
        #: Opened read-only: recovery never rewrites the log, and every
        #: mutating method raises :class:`ReadOnlyStoreError` up front.
        self.read_only = bool(read_only)
        self._manifest = manifest if manifest is not None else read_manifest(path)
        self.wal = WriteAheadLog(os.path.join(self.path, WAL_NAME))
        #: Torn WAL tail detected when the store was opened (truncated in
        #: writable mode; merely skipped in read-only mode, since a live
        #: writer may still be appending that very record).
        self.recovered_torn_tail = False
        #: A whole log predating the live snapshot was discarded on open
        #: (crash between a compaction's manifest swap and its WAL truncate).
        self.discarded_stale_wal = False
        self._records: List[WalRecord] = self._recover_wal()

    def _recover_wal(self) -> List[WalRecord]:
        records, valid_bytes, torn = self.wal.replay()
        self.recovered_torn_tail = torn
        generation = self._manifest.generation
        if any(
            r.generation is not None and r.generation != generation
            for r in records
        ):
            # The log was written against a different snapshot generation
            # than the manifest we read — after a compaction folded it in
            # and died before truncating, or (read-only) a live writer
            # compacted between our manifest and log reads.  Replaying it
            # against this snapshot would mis-apply; ignore it.  The state
            # served is the snapshot itself: consistent, possibly stale.
            if not self.read_only:
                self.wal.truncate()
            self.discarded_stale_wal = True
            return []
        if not self.read_only:
            self.wal.commit_recovery(records, valid_bytes, torn)
        return records

    def check_writable(self) -> None:
        """Raise :class:`ReadOnlyStoreError` when opened with ``read_only=True``."""
        if self.read_only:
            raise ReadOnlyStoreError(
                f"store at {self.path} was opened read-only; writes go "
                "through the single writer (open with read_only=False "
                "while holding the StoreLock)"
            )

    # ------------------------------------------------------------------ #
    # Creation / opening
    # ------------------------------------------------------------------ #
    @classmethod
    def exists(cls, path: PathLike) -> bool:
        """True when ``path`` holds a snapshot manifest."""
        return os.path.isfile(manifest_path(path))

    @classmethod
    def build(
        cls,
        h: Hypergraph,
        path: PathLike,
        algorithm: str = BUILD_ALGORITHM,
        num_shards: int = 4,
        provenance: Optional[Dict[str, object]] = None,
    ) -> "IndexStore":
        """Compute the overlap index of ``h`` and persist it under ``path``."""
        index = OverlapIndex.build(h, algorithm=algorithm)
        return cls.from_index(
            index,
            h.fingerprint(),
            path,
            num_shards=num_shards,
            hypergraph=h,
            provenance=provenance,
        )

    @classmethod
    def from_index(
        cls,
        index: OverlapIndex,
        fingerprint: str,
        path: PathLike,
        num_shards: int = 4,
        *,
        hypergraph: Hypergraph,
        provenance: Optional[Dict[str, object]] = None,
    ) -> "IndexStore":
        """Persist an already-built index of ``hypergraph`` with a copy of it.

        Rebuilding over an existing store continues its generation sequence
        (so stale WAL records are recognisable) and sweeps the superseded
        snapshot's shard files.
        """
        os.makedirs(str(path), exist_ok=True)
        generation = _next_generation(path)
        _save_hypergraph_atomic(hypergraph, os.path.join(str(path), HYPERGRAPH_NAME))
        manifest = write_snapshot(
            index,
            path,
            fingerprint=fingerprint,
            num_shards=num_shards,
            generation=generation,
            provenance=provenance,
        )
        store = cls(path, manifest=manifest)
        store.wal.truncate()  # a fresh snapshot starts with an empty log
        store._records = []
        sweep_orphan_shards(path, manifest)
        return store

    @classmethod
    def open(cls, path: PathLike, read_only: bool = False) -> "IndexStore":
        """Open an existing store, recovering the WAL.

        With ``read_only=True`` the handle never rewrites anything — WAL
        recovery replays the valid prefix without truncating torn tails,
        and :meth:`append_add` / :meth:`append_remove` / :meth:`compact`
        raise :class:`ReadOnlyStoreError` instead of failing deep inside
        the append path.  Any number of read-only handles may share a
        store with one writer (see :class:`repro.service.StoreLock`).
        """
        return cls(path, read_only=read_only)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> Manifest:
        """The manifest of the live snapshot generation."""
        return self._manifest

    @property
    def wal_records(self) -> List[WalRecord]:
        """The recovered (valid-prefix) log records, oldest first."""
        return list(self._records)

    def current_fingerprint(self) -> Optional[str]:
        """Fingerprint of the current state: last logged one, else snapshot's.

        Returns ``None`` when updates were logged without fingerprints (the
        store can still be replayed, but cannot vouch for identity).
        """
        for record in reversed(self._records):
            return record.fingerprint
        return self._manifest.fingerprint

    def num_wal_records(self) -> int:
        """How many log records the live snapshot has pending."""
        return len(self._records)

    @staticmethod
    def state_token(path: PathLike) -> Tuple[int, int]:
        """Cheap change-detection token: ``(generation, WAL byte length)``.

        The token changes whenever a compaction swaps the manifest (the
        generation bumps) or a writer appends/truncates the log — exactly
        the events after which a reader's view is stale.  Reading it costs
        one small-JSON parse plus one ``stat``; pollers (the service
        layer's :class:`~repro.service.ReadReplica`) compare tokens instead
        of re-opening the store.
        """
        generation = read_manifest(path).generation
        try:
            wal_bytes = os.path.getsize(os.path.join(str(path), WAL_NAME))
        except OSError:
            wal_bytes = 0
        return generation, wal_bytes

    def current_state_token(self) -> Tuple[int, int]:
        """:meth:`state_token` of this store's directory (fresh from disk)."""
        return self.state_token(self.path)

    def info(self) -> Dict[str, object]:
        """Human-facing summary (the CLI's ``index info`` payload)."""
        m = self._manifest
        return {
            "path": self.path,
            "format_version": m.format_version,
            "generation": m.generation,
            "fingerprint": m.fingerprint,
            "current_fingerprint": self.current_fingerprint(),
            "num_hyperedges": m.num_hyperedges,
            "num_pairs": m.num_pairs,
            "max_weight": m.max_weight,
            "algorithm": m.algorithm,
            "num_shards": len(m.shards),
            "wal_records": self.num_wal_records(),
            "provenance": dict(m.provenance),
        }

    # ------------------------------------------------------------------ #
    # Reconstruction (snapshot + replayed WAL)
    # ------------------------------------------------------------------ #
    def sharded_index(self, max_resident_shards: Optional[int] = None) -> ShardedIndex:
        """The current index as an out-of-core shard-streaming view."""
        index = ShardedIndex(
            self.path,
            manifest=self._manifest,
            max_resident_shards=max_resident_shards,
        )
        index.apply_overlay(fold_records(self._records, index.edge_sizes))
        return index

    def load_hypergraph(self) -> Hypergraph:
        """The current source hypergraph (saved copy + replayed WAL).

        The archive's own fingerprint disambiguates *which* state the saved
        copy holds: a copy already at the current (post-WAL) fingerprint —
        e.g. written by a compaction that died before swapping the manifest
        — is returned as-is, so log records are never double-applied.
        """
        path = os.path.join(self.path, HYPERGRAPH_NAME)
        if not os.path.isfile(path):
            raise StoreFormatError(
                f"store at {self.path} has no {HYPERGRAPH_NAME}; rebuild the "
                "store from its source hypergraph"
            )
        h = load_hypergraph_npz(path)
        target = self.current_fingerprint()
        saved = h.fingerprint()
        if target is not None and saved == target:
            return h
        records = self._records
        # The saved copy may sit *mid*-sequence: a compaction that died
        # after atomically swapping in the folded hypergraph but before
        # the manifest swap leaves a copy already containing a prefix of
        # the log.  Each record carries its post-apply fingerprint, so
        # replay only the suffix the copy does not yet contain —
        # otherwise the prefix would be applied twice.
        for position, record in enumerate(records):
            if record.fingerprint is not None and record.fingerprint == saved:
                records = records[position + 1:]
                break
        h = _replay_hypergraph(h, records)
        if target is not None and h.fingerprint() != target:
            raise StoreError(
                f"store at {self.path} is inconsistent: saved hypergraph plus "
                f"{len(records)} log records hashes to "
                f"{h.fingerprint()[:12]}…, expected {target[:12]}…; rebuild "
                "the store from its source hypergraph"
            )
        return h

    # ------------------------------------------------------------------ #
    # Durable incremental updates
    # ------------------------------------------------------------------ #
    @contextmanager
    def batch(self) -> Iterator["IndexStore"]:
        """Group-commit scope for :meth:`append_add` / :meth:`append_remove`.

        All records appended inside the ``with`` block share one fsync
        (see :meth:`WriteAheadLog.batch`); none of them is durable — and so
        none may be acknowledged to a client — until the block exits.  The
        admission queue uses this to turn a coalesced batch of updates into
        a single fsync.
        """
        self.check_writable()
        with self.wal.batch():
            yield self

    def append_add(
        self,
        edge_id: int,
        members,
        pair_ids,
        pair_weights,
        fingerprint: Optional[str] = None,
        name: Optional[str] = None,
    ) -> WalRecord:
        """Make one ``add_hyperedge`` durable (fsynced before returning)."""
        self.check_writable()
        record = self.wal.append_add(
            edge_id,
            members,
            pair_ids,
            pair_weights,
            fingerprint=fingerprint,
            name=name,
            generation=self._manifest.generation,
        )
        self._records.append(record)
        return record

    def append_remove(
        self, edge_id: int, fingerprint: Optional[str] = None
    ) -> WalRecord:
        """Make one ``remove_hyperedge`` durable (fsynced before returning)."""
        self.check_writable()
        record = self.wal.append_remove(
            edge_id,
            fingerprint=fingerprint,
            generation=self._manifest.generation,
        )
        self._records.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self, num_shards: Optional[int] = None) -> Manifest:
        """Fold the WAL into a fresh snapshot generation and truncate it.

        Crash-safe ordering: (1) the updated hypergraph is atomically
        swapped in — if the process dies after this, the old manifest plus
        the still-intact WAL remain authoritative and
        :meth:`load_hypergraph` detects the already-current copy by its
        fingerprint; (2) the new generation's shard files are laid down
        (fsynced) next to the live ones by :func:`write_snapshot`, one row
        block at a time from the mmap'd old shards (one mapped at a time)
        plus the folded log, so the pair store is never materialised; (3)
        the manifest is atomically replaced — from this point the WAL is
        stale and recovery discards it by its generation stamp even if (4)
        the truncate never runs.  Superseded and abandoned shard files are
        swept last.
        """
        self.check_writable()
        old_manifest = self._manifest
        if num_shards is None:
            num_shards = max(1, len(old_manifest.shards))
        index = self.sharded_index(max_resident_shards=1)
        # Chaos: a fault here models a crash during the fold, before any
        # on-disk state of the new generation exists.
        STORE_COMPACT_FOLD.fire()
        hypergraph = self.load_hypergraph()
        provenance = dict(old_manifest.provenance)
        provenance["compacted_from_generation"] = old_manifest.generation
        provenance["compacted_wal_records"] = self.num_wal_records()
        _save_hypergraph_atomic(hypergraph, os.path.join(self.path, HYPERGRAPH_NAME))
        # Chaos: a fault here models a crash during the install — new shard
        # files may be partially laid down, the manifest swap has not
        # happened, so the old generation + WAL must stay authoritative.
        STORE_COMPACT_INSTALL.fire()
        manifest = write_snapshot(
            index,
            self.path,
            fingerprint=hypergraph.fingerprint(),
            num_shards=num_shards,
            generation=old_manifest.generation + 1,
            provenance=provenance,
        )
        self.wal.truncate()
        self._records = []
        self._manifest = manifest
        sweep_orphan_shards(self.path, manifest)
        return manifest

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexStore(path={self.path!r}, generation={self._manifest.generation}, "
            f"num_pairs={self._manifest.num_pairs}, wal={self.num_wal_records()})"
        )

"""Snapshot replication: mirror a store directory over the serving protocol.

PR 3-4 let any number of replica processes serve one store — provided they
could *see* its directory.  This module removes the shared-filesystem
requirement: a :class:`StoreMirror` materialises (and keeps current) a
local store directory purely from three read-only replication ops any
serving peer answers:

``repl_manifest``
    The live manifest (verbatim JSON text, so the mirror is byte-identical)
    plus the size and CRC32 of every snapshot file it references, pinned to
    one generation.
``repl_fetch``
    One chunk of one snapshot file (shard arrays, the generation-named
    edge-size array, ``hypergraph.npz``) at a pinned generation, sized
    under the frame cap, riding a protocol v2 binary frame as raw
    (optionally compressed) bytes.
``repl_wal``
    The write-ahead-log tail: the mirror asks with a ``(generation,
    byte_offset, next_seq)`` cursor and receives the raw validated on-disk
    suffix — O(suffix) per poll, byte-identical by construction, with a
    ``rebase`` signal when the source log shrank under the cursor.

The mirror speaks only that shape and needs a protocol 2 connection.  The
*server-side* builders still answer followers from outside this repo that
predate it — :func:`wal_payload` (records after a ``(generation, seq)``
cursor) and the ``raw=False`` base64 chunks — see ``docs/PROTOCOL.md``.

Sync is *delta* by construction: files whose checksum the mirror already
holds (under any name — compaction renames shards it did not change) are
hard-linked/copied locally instead of re-fetched, and between compactions
only the WAL tail crosses the wire.  Crash safety reuses the store's own
layout: fetched shard/edge-size files are generation-named (laying them
down never touches the live snapshot), the manifest and WAL are swapped
atomically, and a sync killed at any point leaves the previous state
serveable — the next sync detects the partial files by checksum and
finishes the job.

The ops are served by :meth:`repro.service.QueryService.execute` (local or
behind a :class:`~repro.service.transport.SocketServer`) via
:class:`LocalReplicationSource`; :class:`~repro.service.transport.client.
ServiceClient` exposes the matching typed helpers, so the same
:class:`StoreMirror` code drives an in-process sync (tests) and a
cross-machine sync (production) unchanged.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

from repro.chaos.failpoints import REPL_FETCH, REPL_MANIFEST, REPL_WAL
from repro.obs import get_registry, get_tracer
from repro.store.format import (
    HYPERGRAPH_NAME,
    Manifest,
    PathLike,
    SHARD_DIR,
    StoreError,
    WAL_NAME,
    fsync_path,
    manifest_path,
    read_manifest,
)
from repro.store.snapshot import sweep_orphan_shards
from repro.store.wal import WriteAheadLog
from repro.utils.validation import ValidationError

#: Sidecar file recording the mirror's sync cursor and per-file checksums.
#: Not part of the store format — store readers ignore it.
MIRROR_STATE_NAME = "replication.json"

#: Default raw bytes per ``repl_fetch`` chunk — far under the 64 MiB frame cap.
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024

#: Server-side clamp on one chunk, so a client cannot request a frame the
#: server's own cap would then refuse to send.
MAX_FETCH_CHUNK_BYTES = 8 * 1024 * 1024

#: Attempts to assemble a consistent manifest payload / complete a sync
#: while a writer compacts underneath (each retry re-reads fresh state).
_PAYLOAD_RETRIES = 6
_SYNC_RETRIES = 4
_RETRY_SLEEP = 0.05


class ReplicationError(StoreError):
    """Base error for snapshot replication failures."""


class ReplicationStaleError(ReplicationError):
    """The pinned generation was superseded mid-operation (restart the sync)."""


def file_crc32(path: PathLike, chunk_bytes: int = 1 << 20) -> int:
    """CRC32 of a whole file, streamed (never loads it into memory)."""
    crc = 0
    with open(str(path), "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def _snapshot_file_names(manifest: Manifest) -> List[str]:
    """Relative (posix-style) names of every file the snapshot references."""
    names: List[str] = []
    for info in manifest.shards:
        names.append(f"{SHARD_DIR}/{info.edges_file}")
        names.append(f"{SHARD_DIR}/{info.weights_file}")
    names.append(manifest.edge_sizes_file)
    names.append(HYPERGRAPH_NAME)
    return names


def _local_path(store_path: str, name: str) -> str:
    return os.path.join(str(store_path), *name.split("/"))


def _write_file_atomic(dest: str, data: bytes, suffix: str = ".sync") -> None:
    """Durably replace ``dest``: write-temp, fsync, rename, fsync dir.

    The one copy of the crash-safety sequence the mirror's small writes
    (sidecar, WAL image, manifest text) share."""
    tmp = dest + suffix
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, dest)
    fsync_path(os.path.dirname(dest) or ".")


# --------------------------------------------------------------------- #
# Server-side payload builders (the replication request vocabulary)
# --------------------------------------------------------------------- #
def manifest_payload(
    store_path: PathLike, cache: Optional[Dict[object, int]] = None
) -> Dict[str, object]:
    """The ``repl_manifest`` response: manifest text + file checksums.

    ``cache`` (optional) memoises checksums keyed by ``(name, size,
    mtime_ns)`` — snapshot files are immutable once written, so a serving
    process pays the CRC pass once per generation, not once per sync.
    Retries internally when a compaction swaps the snapshot mid-walk.
    """
    path = str(store_path)
    # Chaos: fired before the retry loop, so an injected error reaches the
    # peer directly — the harness partitions the *replication plane* with
    # this point while the stats/query plane keeps serving.
    REPL_MANIFEST.fire()
    last_error: Optional[Exception] = None
    for _ in range(_PAYLOAD_RETRIES):
        try:
            with open(manifest_path(path), "r", encoding="utf-8") as handle:
                text = handle.read()
            manifest = Manifest.from_json(text)
            files = []
            for name in _snapshot_file_names(manifest):
                full = _local_path(path, name)
                st = os.stat(full)
                key = (name, st.st_size, st.st_mtime_ns)
                crc = cache.get(key) if cache is not None else None
                if crc is None:
                    crc = file_crc32(full)
                    if cache is not None:
                        if len(cache) > 1024:
                            cache.clear()
                        cache[key] = crc
                files.append({"name": name, "size": st.st_size, "crc32": crc})
            if read_manifest(path).generation != manifest.generation:
                raise ReplicationStaleError(
                    "snapshot generation changed while checksumming"
                )
            try:
                wal_bytes = os.path.getsize(os.path.join(path, WAL_NAME))
            except OSError:
                wal_bytes = 0
            return {
                "generation": manifest.generation,
                "manifest_json": text,
                "files": files,
                "state_token": [manifest.generation, wal_bytes],
            }
        except (OSError, StoreError) as exc:
            last_error = exc
            time.sleep(_RETRY_SLEEP)
    raise ReplicationStaleError(
        f"could not assemble a consistent replication manifest for {path} "
        f"after {_PAYLOAD_RETRIES} attempts: {last_error}"
    )


def wal_payload(
    store_path: PathLike, generation: int, after_seq: int
) -> Dict[str, object]:
    """The ``repl_wal`` response: log records after a ``(generation, seq)`` cursor.

    Raises :class:`ReplicationStaleError` when the live snapshot is no
    longer at ``generation`` (a compaction landed; the mirror must restart
    with a snapshot sync).  A log stamped with a *different* generation —
    the crash window between a compaction's manifest swap and its WAL
    truncate — is reported empty, exactly as a recovering open would treat
    it.
    """
    path = str(store_path)
    REPL_WAL.fire()
    generation = int(generation)
    after_seq = int(after_seq)
    manifest = read_manifest(path)
    if manifest.generation != generation:
        raise ReplicationStaleError(
            f"snapshot at {path} is at generation {manifest.generation}, "
            f"not the pinned {generation}"
        )
    records, _, _ = WriteAheadLog(os.path.join(path, WAL_NAME)).replay()
    if any(r.generation is not None and r.generation != generation for r in records):
        records = []
    return {
        "generation": generation,
        "total": len(records),
        "after_seq": after_seq,
        "records": [
            {"seq": r.seq, "payload": r.payload} for r in records if r.seq > after_seq
        ],
    }


def wal_suffix_payload(
    store_path: PathLike,
    generation: int,
    after_bytes: int,
    next_seq: int,
    raw: bool = False,
) -> Dict[str, object]:
    """The cursor-mode ``repl_wal`` response: the raw validated log suffix.

    The fast path behind :class:`StoreMirror` delta syncs: instead of
    replaying (and JSON-decoding) the whole log per poll, ship the on-disk
    bytes after ``(generation, after_bytes)``, structurally validated from
    sequence ``next_seq`` (see :meth:`WriteAheadLog.read_suffix`).  The
    response carries ``count`` records as ``data`` (raw bytes with
    ``raw=True`` — the binary-frame shape — else base64 text), the
    advanced ``next_seq``/``end_offset`` cursor, and ``rebase=True`` when
    the cursor no longer lines up with the log, telling the mirror to
    re-read from byte 0.

    Raises :class:`ReplicationStaleError` when the live snapshot moved off
    the pinned ``generation``.  A suffix whose first record is stamped
    with a different generation — the crash window between a compaction's
    manifest swap and its WAL truncate — is reported empty, exactly as a
    recovering open would treat the log.
    """
    path = str(store_path)
    REPL_WAL.fire()
    generation = int(generation)
    after_bytes = int(after_bytes)
    next_seq = int(next_seq)
    manifest = read_manifest(path)
    if manifest.generation != generation:
        raise ReplicationStaleError(
            f"snapshot at {path} is at generation {manifest.generation}, "
            f"not the pinned {generation}"
        )
    suffix = WriteAheadLog(os.path.join(path, WAL_NAME)).read_suffix(
        after_bytes, next_seq
    )
    base: Dict[str, object] = {
        "generation": generation,
        "mode": "suffix",
        "after_bytes": after_bytes,
    }
    if suffix is None:
        base["rebase"] = True
        return base
    data, count, end_offset = suffix
    if count:
        try:
            first = json.loads(data[: data.find(b"\n")].split(b"\t", 2)[2])
            stamped = first.get("gen")
        except (ValueError, UnicodeDecodeError):
            base["rebase"] = True
            return base
        if stamped is not None and int(stamped) != generation:
            data, count, end_offset = b"", 0, after_bytes
    base.update(
        rebase=False,
        count=count,
        next_seq=next_seq + count,
        end_offset=end_offset,
        data=data if raw else base64.b64encode(data).decode("ascii"),
    )
    return base


def fetch_payload(
    store_path: PathLike,
    name: str,
    generation: int,
    offset: int,
    length: int,
    raw: bool = False,
) -> Dict[str, object]:
    """The ``repl_fetch`` response: one chunk of one snapshot file.

    ``name`` must be a file the *live* manifest references (no path
    escapes; the WAL travels via :func:`wal_payload`, never here), and the
    live generation must still match the pinned one — a swept file or a
    swapped manifest answers :class:`ReplicationStaleError` so the mirror
    restarts cleanly instead of splicing two generations together.  With
    ``raw=True`` the chunk is returned as bytes (in-process callers);
    otherwise base64 text, JSON-safe under the frame cap.
    """
    path = str(store_path)
    REPL_FETCH.fire()
    generation = int(generation)
    offset = int(offset)
    length = min(int(length), MAX_FETCH_CHUNK_BYTES)
    if offset < 0 or length < 0:
        raise ValidationError("repl_fetch offset/length must be non-negative")
    manifest = read_manifest(path)
    if manifest.generation != generation:
        raise ReplicationStaleError(
            f"snapshot at {path} is at generation {manifest.generation}, "
            f"not the pinned {generation}"
        )
    allowed = set(_snapshot_file_names(manifest))
    if str(name) not in allowed:
        raise ValidationError(
            f"{name!r} is not a snapshot file of generation {generation}"
        )
    try:
        with open(_local_path(path, str(name)), "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            handle.seek(offset)
            data = handle.read(length)
    except FileNotFoundError as exc:
        raise ReplicationStaleError(
            f"snapshot file {name!r} vanished (compaction swept it): {exc}"
        ) from exc
    return {
        "name": str(name),
        "generation": generation,
        "offset": offset,
        "size": size,
        "eof": offset + len(data) >= size,
        "data": data if raw else base64.b64encode(data).decode("ascii"),
    }


class ReplicationSource(Protocol):
    """What a :class:`StoreMirror` pulls from (duck-typed).

    Implemented by :class:`LocalReplicationSource` (same-process source
    directory) and :class:`repro.service.transport.client.ServiceClient`
    (the socket protocol).  All three methods are required, and ``data``
    always comes back as ``bytes``.
    """

    def repl_manifest(self) -> Dict[str, object]:
        """The live manifest plus per-file size and CRC32, pinned to a generation."""
        ...

    def repl_wal_suffix(
        self, generation: int, after_bytes: int, next_seq: int
    ) -> Dict[str, object]:
        """The raw log suffix past ``after_bytes`` (see :func:`wal_suffix_payload`)."""
        ...

    def repl_fetch(
        self, name: str, generation: int, offset: int, length: int
    ) -> Dict[str, object]:
        """A chunk of snapshot file ``name``; ``data`` must come back as bytes."""
        ...


class LocalReplicationSource:
    """Serve the replication ops straight from a store directory.

    Used by :class:`repro.service.QueryService` to answer ``repl_*``
    requests, and by tests/tools that mirror without a socket.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = str(path)
        self._crc_cache: Dict[object, int] = {}

    def repl_manifest(self) -> Dict[str, object]:
        """The ``repl_manifest`` payload (checksums memoised per generation)."""
        return manifest_payload(self.path, cache=self._crc_cache)

    def repl_wal(self, generation: int, after_seq: int) -> Dict[str, object]:
        """Record-mode ``repl_wal``, answered for pre-cursor followers only."""
        return wal_payload(self.path, generation, after_seq)

    def repl_wal_suffix(
        self, generation: int, after_bytes: int, next_seq: int, raw: bool = True
    ) -> Dict[str, object]:
        """Cursor-mode ``repl_wal``: the raw log suffix after a byte offset."""
        return wal_suffix_payload(
            self.path, generation, after_bytes, next_seq, raw=raw
        )

    def repl_fetch(
        self, name: str, generation: int, offset: int, length: int, raw: bool = True
    ) -> Dict[str, object]:
        """One file chunk; ``raw=False`` base64-encodes it (the v1 wire shape)."""
        return fetch_payload(self.path, name, generation, offset, length, raw=raw)


@dataclass
class SyncReport:
    """What one :meth:`StoreMirror.sync` did (observability / tests)."""

    generation: int
    #: A snapshot (not just a WAL tail) was installed this sync.
    full_sync: bool
    #: Whether anything changed at all.
    changed: bool
    fetched_files: int = 0
    #: Files satisfied from the local previous generation (delta sync).
    reused_files: int = 0
    fetched_bytes: int = 0
    #: WAL records newly applied (appended or rewritten).
    wal_records: int = 0


class StoreMirror:
    """Materialise and maintain a local copy of a remote store directory.

    Parameters
    ----------
    source:
        A :class:`ReplicationSource` — typically a connected
        :class:`~repro.service.transport.client.ServiceClient`.
    path:
        Local directory for the mirror (created if missing).  Any store
        reader — :class:`~repro.store.IndexStore`,
        :class:`~repro.service.ReadReplica` — can open it read-only while
        the mirror keeps syncing; generation swaps are atomic.

    The mirror is the directory's only writer (pair it with the service
    layer's ``StoreLock`` when that needs enforcing across processes).
    """

    def __init__(
        self,
        source: ReplicationSource,
        path: PathLike,
        sync_retries: int = _SYNC_RETRIES,
    ) -> None:
        self.source = source
        self.path = str(path)
        self.sync_retries = int(sync_retries)
        #: Completed syncs that changed anything (observability).
        self.syncs = 0
        os.makedirs(os.path.join(self.path, SHARD_DIR), exist_ok=True)
        self._state = self._load_state()
        self._last_sync_monotonic: Optional[float] = None
        self._tracer = get_tracer()
        registry = get_registry()
        self._m_fetched_bytes = registry.counter(
            "repro_replication_fetched_bytes_total",
            "Snapshot bytes pulled over the replication protocol.",
        )
        self._m_fetch_chunks = registry.counter(
            "repro_replication_fetch_chunks_total",
            "repl_fetch round trips made while mirroring snapshot files.",
        )
        self._m_wal_records = registry.counter(
            "repro_replication_wal_records_total",
            "WAL records applied to the mirror (appended or rewritten).",
        )
        syncs = registry.counter(
            "repro_replication_syncs_total",
            "Completed syncs that changed the mirror, by kind.",
            ("kind",),
        )
        self._m_syncs_full = syncs.labels(kind="full")
        self._m_syncs_delta = syncs.labels(kind="delta")
        self._m_gen_lag = registry.gauge(
            "repro_replica_generation_lag",
            "Snapshot generations the peer is ahead of this mirror.",
        )
        self._m_wal_lag = registry.gauge(
            "repro_replica_wal_lag_bytes",
            "WAL bytes the peer holds that this mirror has not applied.",
        )
        age = registry.gauge(
            "repro_replica_last_sync_age_seconds",
            "Seconds since this mirror last completed a sync (-1: never).",
        )
        age.set_function(self._sync_age)

    def _sync_age(self) -> float:
        if self._last_sync_monotonic is None:
            return -1.0
        return time.monotonic() - self._last_sync_monotonic

    # ------------------------------------------------------------------ #
    # Sidecar state
    # ------------------------------------------------------------------ #
    def _state_path(self) -> str:
        return os.path.join(self.path, MIRROR_STATE_NAME)

    def _load_state(self) -> Dict[str, object]:
        try:
            with open(self._state_path(), "r", encoding="utf-8") as handle:
                state = json.load(handle)
            if isinstance(state, dict):
                return state
        except (OSError, json.JSONDecodeError):
            pass
        return {"generation": None, "wal_seq": 0, "wal_bytes": 0, "files": {}}

    def _save_state(self) -> None:
        data = json.dumps(self._state, indent=2, sort_keys=True).encode("utf-8")
        _write_file_atomic(self._state_path(), data, suffix=".tmp")

    @property
    def generation(self) -> Optional[int]:
        """Generation of the last completed sync (None before the first)."""
        gen = self._state.get("generation")
        return None if gen is None else int(gen)

    @property
    def wal_seq(self) -> int:
        """Highest WAL sequence number mirrored so far."""
        return int(self._state.get("wal_seq", 0))

    # ------------------------------------------------------------------ #
    # Lag
    # ------------------------------------------------------------------ #
    def observe_peer_token(self, token: Optional[Sequence[int]]) -> Dict[str, float]:
        """Record how far behind the peer this mirror is, from its token.

        ``token`` is the peer's ``(generation, WAL bytes)`` state token (as
        served by ``stats``); ``None`` — a peer that could not report one —
        leaves the gauges untouched.  Sets the ``repro_replica_*`` lag
        gauges and returns the computed distances, so pollers
        (:class:`repro.service.remote.RemoteReadReplica`, the CLI
        ``replicate`` loop) expose lag as a side effect of the check they
        already make.
        """
        if token is None:
            return {}
        peer_gen, peer_wal = int(token[0]), int(token[1])
        local_gen = self.generation
        gen_lag = max(0, peer_gen - (local_gen if local_gen is not None else 0))
        if local_gen == peer_gen:
            wal_lag = max(0, peer_wal - int(self._state.get("wal_bytes", 0)))
        else:
            # Different generation: none of the peer's current WAL is
            # mirrored yet (a snapshot sync replaces ours wholesale).
            wal_lag = peer_wal
        self._m_gen_lag.set(gen_lag)
        self._m_wal_lag.set(wal_lag)
        return {
            "generation_lag": float(gen_lag),
            "wal_lag_bytes": float(wal_lag),
            "last_sync_age_seconds": self._sync_age(),
        }

    # ------------------------------------------------------------------ #
    # Sync
    # ------------------------------------------------------------------ #
    def sync(self) -> SyncReport:
        """Bring the mirror up to date; retries through source compactions."""
        last_error: Optional[Exception] = None
        for attempt in range(max(1, self.sync_retries)):
            if attempt:
                time.sleep(_RETRY_SLEEP)
            try:
                with self._tracer.start_span("replication.sync") as span:
                    report = self._sync_once()
                    span.set_attribute("full", report.full_sync)
                    span.set_attribute("changed", report.changed)
            except ReplicationStaleError as exc:
                last_error = exc
                continue
            if report.changed:
                self.syncs += 1
                (self._m_syncs_full if report.full_sync else self._m_syncs_delta).inc()
                self._m_wal_records.inc(report.wal_records)
            self._last_sync_monotonic = time.monotonic()
            # A completed sync means the mirror holds everything the peer
            # advertised when the sync started.
            self._m_gen_lag.set(0)
            self._m_wal_lag.set(0)
            return report
        raise ReplicationError(
            f"mirror at {self.path} could not complete a sync in "
            f"{self.sync_retries} attempts (source kept moving): {last_error}"
        )

    def _sync_once(self) -> SyncReport:
        remote = self.source.repl_manifest()
        generation = int(remote["generation"])
        known = self._state.get("files", {})
        # A compaction killed after replacing hypergraph.npz leaves the
        # generation unchanged but the file's checksum new: only a
        # snapshot sync re-fetches it.
        if self.generation == generation and all(
            known.get(str(e["name"])) == {"size": int(e["size"]), "crc32": int(e["crc32"])}
            for e in remote["files"]
        ):
            with self._tracer.start_span(
                "replication.sync.delta", {"generation": generation}
            ):
                return self._sync_wal_only(generation)
        with self._tracer.start_span(
            "replication.sync.full", {"generation": generation}
        ):
            return self._sync_snapshot(remote)

    # -- WAL tail only (same generation) ------------------------------- #
    def _wal_suffix(
        self, generation: int, after_bytes: int, next_seq: int
    ) -> Dict[str, object]:
        """The source's log suffix at a cursor, or its ``rebase`` answer.

        A ``rebase`` with nothing left to rebase to — the cursor already is
        byte 0 / sequence 1 — or an answer without ``data``/``count`` raises
        :class:`ReplicationStaleError`, so :meth:`sync` restarts from a
        fresh manifest within its retry bound.
        """
        payload = self.source.repl_wal_suffix(generation, after_bytes, next_seq)
        if payload.get("rebase"):
            if after_bytes == 0 and next_seq == 1:
                raise ReplicationStaleError(
                    "source WAL does not validate from its first byte"
                )
        elif "data" not in payload or "count" not in payload:
            raise ReplicationStaleError(
                "source answered repl_wal without the cursor fields data/count"
            )
        return payload

    def _sync_wal_only(self, generation: int) -> SyncReport:
        wal_path = os.path.join(self.path, WAL_NAME)
        try:
            local_bytes = os.path.getsize(wal_path)
        except OSError:
            local_bytes = 0
        suffix: Dict[str, object] = {"rebase": True}
        if local_bytes == int(self._state.get("wal_bytes", 0)):
            # Ship only the bytes after our cursor and append them
            # verbatim — O(new tail) per poll, byte-identical to the
            # source by construction.
            suffix = self._wal_suffix(generation, local_bytes, self.wal_seq + 1)
        if suffix.get("rebase"):
            # Our tail is suspect (killed mid-append) or the source's log
            # shrank under our cursor (writer restart recovery): re-read
            # from byte 0 and swap the whole log in atomically.
            suffix = self._wal_suffix(generation, 0, 1)
            applied = total = int(suffix["count"])
            _write_file_atomic(wal_path, suffix["data"])
        else:
            applied = int(suffix["count"])
            if not applied:
                return SyncReport(generation=generation, full_sync=False, changed=False)
            total = self.wal_seq + applied
            with open(wal_path, "ab") as handle:
                handle.write(suffix["data"])
                handle.flush()
                os.fsync(handle.fileno())
        self._state["wal_seq"] = total
        self._state["wal_bytes"] = os.path.getsize(wal_path)
        self._save_state()
        return SyncReport(
            generation=generation, full_sync=False, changed=True, wal_records=applied
        )

    # -- Snapshot (generation changed or first sync) -------------------- #
    def _sync_snapshot(self, remote: Dict[str, object]) -> SyncReport:
        generation = int(remote["generation"])
        manifest = Manifest.from_json(str(remote["manifest_json"]))
        report = SyncReport(generation=generation, full_sync=True, changed=True)

        # Files already present under their final name and checksum (e.g.
        # an unchanged hypergraph.npz) are kept; files whose *content* the
        # previous generation already holds under another name (compaction
        # renames every shard, changes few) are linked/copied locally.
        # Only generation-named files may act as donors: they are
        # write-once, so the sidecar checksum is trustworthy — a
        # same-name file like hypergraph.npz can have been atomically
        # replaced by a killed sync after the sidecar was last written.
        known: Dict[str, Dict[str, object]] = dict(self._state.get("files", {}))
        # Donors are keyed by (size, crc32), not bare CRC32: 32 bits alone
        # is thin enough that a collision across many generations would
        # silently install the wrong shard and poison the sidecar.
        by_content: Dict[tuple, str] = {}
        for known_name, meta in known.items():
            if known_name == HYPERGRAPH_NAME:
                continue
            local = _local_path(self.path, known_name)
            if os.path.isfile(local) and os.path.getsize(local) == int(meta["size"]):
                by_content.setdefault((int(meta["size"]), int(meta["crc32"])), known_name)

        new_files: Dict[str, Dict[str, object]] = {}
        to_fetch: List[Dict[str, object]] = []
        to_reuse: List[tuple] = []
        for entry in remote["files"]:
            name = str(entry["name"])
            size = int(entry["size"])
            crc = int(entry["crc32"])
            new_files[name] = {"size": size, "crc32": crc}
            dest = _local_path(self.path, name)
            prior = known.get(name)
            if (
                prior is not None
                and int(prior["crc32"]) == crc
                and os.path.isfile(dest)
                and os.path.getsize(dest) == size
                # Replace-in-place files re-verify against the disk (the
                # sidecar may be stale after a killed sync); write-once
                # generation-named files trust the sidecar.
                and (name != HYPERGRAPH_NAME or file_crc32(dest) == crc)
            ):
                continue  # unchanged in place
            donor = by_content.get((size, crc))
            if donor is not None and donor != name:
                to_reuse.append((donor, name))
            else:
                to_fetch.append(entry)
        # All local reuse happens before any fetch lands, so a fetch that
        # overwrites a same-name file can never corrupt a donor.  Files
        # whose final name already exists locally (hypergraph.npz, or any
        # same-name collision) are *staged* and only installed in the swap
        # sequence below — a sync killed mid-fetch must leave the previous
        # state fully openable.
        self._clean_stale_staged()
        staged: Dict[str, str] = {}

        def _dest(name: str) -> str:
            dest = _local_path(self.path, name)
            if name == HYPERGRAPH_NAME or os.path.exists(dest):
                staged[dest] = dest + ".staged"
                return staged[dest]
            return dest

        for donor, name in to_reuse:
            self._reuse_file(_local_path(self.path, donor), _dest(name))
            report.reused_files += 1
        for entry in to_fetch:
            name, size, crc = str(entry["name"]), int(entry["size"]), int(entry["crc32"])
            self._fetch_file(name, generation, size, crc, _dest(name))
            report.fetched_files += 1
            report.fetched_bytes += size
        if to_reuse or to_fetch:
            # One directory fsync makes every rename/link above durable
            # BEFORE the manifest swap can reference the new names — the
            # same data-before-manifest ordering write_snapshot() uses.
            # (File *contents* are already durable: fetches fsync their
            # bytes, and reuse donors were fsynced when first written; a
            # per-link fsync here would make a mostly-reused delta sync
            # pay full-sync latency for nothing.)
            fsync_path(os.path.join(self.path, SHARD_DIR))
            fsync_path(self.path)

        # The WAL for the pinned generation (the source's raw on-disk
        # bytes), staged next to the live one.
        suffix = self._wal_suffix(generation, 0, 1)
        wal_total = int(suffix["count"])
        wal_path = os.path.join(self.path, WAL_NAME)
        wal_tmp = wal_path + ".sync"
        with open(wal_tmp, "wb") as handle:
            handle.write(suffix["data"])
            handle.flush()
            os.fsync(handle.fileno())

        # Install: back-to-back renames in the writer compaction's own
        # order — hypergraph (and any other staged in-place file),
        # manifest, log.  Every fetch above only staged files, so a kill
        # before this point leaves the previous state fully openable; the
        # windows between the renames are the same (microsecond) ones the
        # writer's compact() accepts, and the serving replica rides them
        # out on its already-open engine.
        for final, tmp in staged.items():
            os.replace(tmp, final)
        self._write_manifest_text(str(remote["manifest_json"]))
        os.replace(wal_tmp, wal_path)
        fsync_path(self.path)

        self._state = {
            "generation": generation,
            "wal_seq": wal_total,
            "wal_bytes": os.path.getsize(wal_path),
            "files": new_files,
        }
        self._save_state()
        report.wal_records = wal_total
        sweep_orphan_shards(self.path, manifest)
        return report

    def _clean_stale_staged(self) -> None:
        """Drop ``*.staged`` leftovers of an earlier killed sync."""
        for directory in (self.path, os.path.join(self.path, SHARD_DIR)):
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if name.endswith(".staged"):
                    try:
                        os.remove(os.path.join(directory, name))
                    except OSError:  # pragma: no cover - racing cleanup
                        pass

    def _write_manifest_text(self, text: str) -> None:
        _write_file_atomic(manifest_path(self.path), text.encode("utf-8"))

    def _reuse_file(self, donor: str, dest: str) -> None:
        """Satisfy a fetch from a local file with identical content.

        The caller fsyncs the enclosing directories once after the whole
        reuse pass; the donor's content is already durable."""
        tmp = dest + ".sync"
        try:
            if os.path.exists(tmp):
                os.remove(tmp)
            os.link(donor, tmp)  # O(1); snapshot files are immutable
        except OSError:
            shutil.copyfile(donor, tmp)
            with open(tmp, "rb") as handle:
                os.fsync(handle.fileno())
        os.replace(tmp, dest)

    def _fetch_file(
        self, name: str, generation: int, size: int, crc: int, dest: str
    ) -> None:
        """Stream one remote file to ``dest``, verifying size and checksum."""
        tmp = dest + ".sync"
        received = 0
        running_crc = 0
        with open(tmp, "wb") as handle:
            while received < size:
                chunk = self.source.repl_fetch(
                    name, generation, received, min(DEFAULT_CHUNK_BYTES, size - received)
                )
                data = chunk["data"]
                if not data:
                    break
                handle.write(data)
                running_crc = zlib.crc32(data, running_crc)
                received += len(data)
                self._m_fetch_chunks.inc()
                self._m_fetched_bytes.inc(len(data))
            handle.flush()
            os.fsync(handle.fileno())
        if received != size or (running_crc & 0xFFFFFFFF) != crc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise ReplicationStaleError(
                f"fetched {name!r} does not match its advertised size/checksum "
                f"({received}/{size} bytes); the source moved — restarting sync"
            )
        os.replace(tmp, dest)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreMirror(path={self.path!r}, generation={self.generation}, "
            f"wal_seq={self.wal_seq}, syncs={self.syncs})"
        )

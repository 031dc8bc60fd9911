"""Write-ahead log of incremental overlap-index updates.

Each ``add_hyperedge`` / ``remove_hyperedge`` appends one framed record, so
an updated index is recoverable from ``snapshot + log`` without a rebuild.
Records are line-delimited and self-checking::

    <seq>\t<crc32 hex of payload>\t<payload JSON>\n

A crash mid-append leaves a torn tail — a partial line, a payload whose
CRC32 does not match, or a sequence break.  :meth:`WriteAheadLog.recover`
replays the longest valid prefix and truncates the file to it, which is the
standard redo-log recovery contract: every acknowledged (fsynced) record
survives, a torn trailing record is dropped.

Add records carry both the *member vertices* of the new hyperedge (so the
source hypergraph can be replayed forward) and its precomputed *overlap
row* (``pair_ids`` / ``pair_weights``, so the index overlay never repeats
the wedge walk).  Records optionally carry the post-update hypergraph
fingerprint, letting readers validate a live store against a hypergraph
without replaying it.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.failpoints import WAL_APPEND, WAL_FSYNC
from repro.obs import get_registry, get_tracer
from repro.store.format import PathLike, StoreError, StoreFormatError

OP_ADD = "add"
OP_REMOVE = "remove"
#: A record's ``fingerprint``: :meth:`Hypergraph.fingerprint`'s hex digest.
_DIGEST = re.compile("[0-9a-f]{64}")


@dataclass
class WalRecord:
    """One decoded log record."""

    seq: int
    op: str
    payload: dict

    @property
    def edge_id(self) -> int:
        """The hyperedge the record adds or removes."""
        return int(self.payload["edge_id"])

    @property
    def fingerprint(self) -> Optional[str]:
        """The hypergraph fingerprint after the update (``None`` if unlogged)."""
        return self.payload.get("fingerprint")

    @property
    def generation(self) -> Optional[int]:
        """Snapshot generation the record applies on top of (None if unknown;
        an integer whenever the record was decoded or appended by this log)."""
        return self.payload.get("gen")


def _frame(seq: int, payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{seq}\t{crc:08x}\t{body}\n".encode("utf-8")


def _checked_body(line: bytes, expected_seq: int) -> Optional[bytes]:
    """The JSON body of one frame line (no trailing newline), or ``None``
    unless its shape, sequence number and CRC32 all hold."""
    parts = line.split(b"\t", 2)
    if len(parts) != 3:
        return None
    try:
        seq = int(parts[0])
        crc = int(parts[1], 16)
    except ValueError:
        return None
    if seq != expected_seq or zlib.crc32(parts[2]) & 0xFFFFFFFF != crc:
        return None
    return parts[2]


class WriteAheadLog:
    """Append-only, checksummed redo log for one store directory."""

    def __init__(self, path: PathLike) -> None:
        self.path = str(path)
        self._next_seq: Optional[int] = None
        self._batch_handle = None
        self._batch_poisoned = False
        #: Group commits performed via :meth:`batch` (observability).
        self.batch_commits = 0
        self._tracer = get_tracer()
        # Durability telemetry, bound once per log (striped counters).
        registry = get_registry()
        self._m_records = registry.counter(
            "repro_wal_appended_records_total", "Records framed into the WAL."
        )
        self._m_bytes = registry.counter(
            "repro_wal_appended_bytes_total", "Bytes framed into the WAL."
        )
        self._m_fsyncs = registry.counter(
            "repro_wal_fsyncs_total", "fsync calls made durable by the WAL."
        )
        self._m_recovery_discarded = registry.counter(
            "repro_wal_recovery_discarded_bytes_total",
            "Torn-tail bytes truncated by WAL recovery.",
        )

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def replay(self) -> Tuple[List[WalRecord], int, bool]:
        """Decode the longest valid prefix of the log.

        Returns ``(records, valid_bytes, torn)`` where ``valid_bytes`` is
        the byte length of the prefix and ``torn`` reports whether anything
        (a partial or corrupt tail) followed it.
        """
        if not os.path.isfile(self.path):
            return [], 0, False
        with open(self.path, "rb") as handle:
            data = handle.read()
        records: List[WalRecord] = []
        offset = 0
        expected_seq = 1
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # partial trailing line: torn append
            line = data[offset : newline]
            record = self._decode(line, expected_seq)
            if record is None:
                break
            records.append(record)
            offset = newline + 1
            expected_seq += 1
        return records, offset, offset < len(data)

    def _decode(self, line: bytes, expected_seq: int) -> Optional[WalRecord]:
        """The record one frame line holds, or ``None`` if the line is torn.

        A CRC-valid record whose ``gen`` stamp is not an integer, or whose
        ``fingerprint`` is not a 64-character lowercase hex string, is not a
        torn append but a corrupt log: it raises :class:`StoreFormatError`.
        """
        body = _checked_body(line, expected_seq)
        if body is None:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("op") not in (
            OP_ADD,
            OP_REMOVE,
        ):
            return None
        gen = payload.get("gen")
        if gen is not None and type(gen) is not int:
            raise StoreFormatError(
                f"write-ahead log {self.path} record {expected_seq} carries a "
                f"non-integer generation {gen!r}"
            )
        fingerprint = payload.get("fingerprint")
        if fingerprint is not None and not (
            type(fingerprint) is str and _DIGEST.fullmatch(fingerprint)
        ):
            raise StoreFormatError(
                f"write-ahead log {self.path} record {expected_seq} carries a "
                f"fingerprint {fingerprint!r} that is not a 64-character "
                "lowercase hex digest"
            )
        return WalRecord(seq=expected_seq, op=str(payload["op"]), payload=payload)

    def read_suffix(
        self, offset: int, next_seq: int, generation: int
    ) -> Optional[Tuple[bytes, int, int]]:
        """Raw framed bytes of the valid log suffix at a byte/seq cursor.

        The replication fast path (``docs/PROTOCOL.md``, ``repl_wal`` with
        ``after_bytes``): a mirror that already holds the first ``offset``
        bytes — ``next_seq - 1`` records — asks only for what follows, and
        appends the returned bytes verbatim, staying byte-identical to the
        source without re-framing anything.  Within one generation the
        valid prefix of the log is append-only (recovery only ever trims a
        *torn, never-acknowledged* tail; compaction bumps the generation),
        so shipping the suffix raw is sound.

        Returns ``(data, count, end_offset)``: ``count`` whole records
        whose frames are ``data``, validated structurally (line shape,
        sequence continuity from ``next_seq``, CRC32) without JSON-decoding
        payloads, ending at byte ``end_offset``.  A partial trailing line
        (an append in flight) is simply not included.  Returns ``None``
        when the cursor does not line up with the on-disk log — the file is
        shorter than ``offset``, or a *complete* line at/after the cursor
        fails validation, or the first one's body does not decode — in
        which case the caller must rebase (re-read from byte 0).

        A suffix whose first record is stamped with a generation other
        than the pinned ``generation`` answers empty at the cursor: that
        is the crash window between a compaction's manifest swap and its
        log truncate, and a recovering open discards such a log too.
        """
        offset = int(offset)
        expected = int(next_seq)
        if offset < 0 or expected < 1:
            raise StoreError(
                f"invalid WAL cursor (offset={offset}, next_seq={next_seq})"
            )
        if not os.path.isfile(self.path):
            return (b"", 0, 0) if offset == 0 else None
        with open(self.path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < offset:
                return None  # log shrank under the cursor
            handle.seek(offset)
            data = handle.read()
        end = 0
        count = 0
        pos = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            if newline < 0:
                break  # torn in-flight append: stop cleanly before it
            if _checked_body(data[pos:newline], expected) is None:
                # A complete line that does not continue the cursor: the
                # log diverged (rewritten or corrupt) — rebase.  A partial
                # flush can only truncate the tail, never alter a complete
                # line, so this is never a benign race.
                return None
            pos = newline + 1
            end = pos
            count += 1
            expected += 1
        if count:
            first = self._decode(data[: data.find(b"\n")], int(next_seq))
            if first is None:
                return None
            if first.generation is not None and first.generation != int(generation):
                return b"", 0, offset
        return bytes(data[:end]), count, offset + end

    def commit_recovery(
        self, records: List[WalRecord], valid_bytes: int, torn: bool
    ) -> None:
        """Finish a recovery decided from one :meth:`replay` result.

        Truncates the torn tail (if any) and positions the append sequence,
        without re-reading the log — callers that already hold a replay
        result (e.g. :class:`repro.store.IndexStore` on open) use this to
        keep recovery a single pass over the file.
        """
        if torn:
            try:
                torn_bytes = max(0, os.path.getsize(self.path) - valid_bytes)
            except OSError:
                torn_bytes = 0
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            self._m_fsyncs.inc()
            self._m_recovery_discarded.inc(torn_bytes)
        self._next_seq = len(records) + 1

    def recover(self) -> List[WalRecord]:
        """Replay the valid prefix and truncate any torn tail in place."""
        records, valid_bytes, torn = self.replay()
        self.commit_recovery(records, valid_bytes, torn)
        return records

    def __len__(self) -> int:
        records, _, _ = self.replay()
        return len(records)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _peek_seq(self) -> int:
        if self._next_seq is None:
            records, _, torn = self.replay()
            if torn:
                raise StoreFormatError(
                    f"write-ahead log {self.path} has a torn tail; call "
                    "recover() before appending"
                )
            self._next_seq = len(records) + 1
        return self._next_seq

    def _append(self, payload: dict) -> int:
        # The sequence number is consumed only AFTER the frame is written
        # (and, outside a batch, fsynced).  Advancing it first would leave
        # a hole when the write raises (e.g. ENOSPC): the next successful
        # append would frame seq N+1 with no seq N on disk, replay() would
        # stop at the gap, and every later durable, acknowledged record
        # would silently vanish on recovery.
        seq = self._peek_seq()
        frame = _frame(seq, payload)
        if self._batch_handle is not None:
            if self._batch_poisoned:
                raise StoreError(
                    f"write-ahead log {self.path} batch is poisoned by an "
                    "earlier failed append; no further records may join "
                    "this group commit"
                )
            try:
                # Group commit: the enclosing batch() owns the flush + fsync.
                WAL_APPEND.fire()
                self._batch_handle.write(frame)
            except OSError:
                # The frame may be partially buffered/written; refuse any
                # further appends (they would land after the tear and be
                # discarded by replay) and let batch() trim on exit.
                self._batch_poisoned = True
                raise
        else:
            with open(self.path, "ab") as handle:
                start = handle.tell()
                try:
                    WAL_APPEND.fire()
                    handle.write(frame)
                    handle.flush()
                    os.fsync(handle.fileno())
                except OSError:
                    self._rollback_failed_write(handle, start)
                    raise
            self._m_fsyncs.inc()
        self._m_records.inc()
        self._m_bytes.inc(len(frame))
        self._next_seq = seq + 1
        return seq

    def _rollback_failed_write(self, handle, start: int) -> None:
        """Trim whatever a failed append left behind ``start``.

        A failed write/flush/fsync may have pushed part (or all) of the
        frame to disk; since the record was never acknowledged it must not
        survive, and a torn frame must not sit under later appends.  When
        even the trim fails, drop the cached sequence so the next append
        re-replays the file and surfaces the torn tail to ``recover()``.
        """
        try:
            handle.truncate(start)
            handle.flush()
            os.fsync(handle.fileno())
        except OSError:
            self._next_seq = None

    @contextmanager
    def batch(self) -> Iterator["WriteAheadLog"]:
        """Group-commit scope: appends inside share one flush + fsync.

        Per-record durability costs one fsync each; an update stream admits
        far faster when a batch of records is framed into the log and made
        durable with a *single* fsync on exit.  Callers must not acknowledge
        any record of the batch before the ``with`` block exits — inside it,
        records are framed but not yet durable.  Nested batches join the
        outermost one (one fsync total).  The fsync runs even when the block
        raises: records already framed stay valid on disk, and the recovery
        contract (valid prefix survives) is unaffected.

        A failed append *poisons* the batch: the broken frame may be torn
        on disk, so later appends (which would land after the tear and be
        discarded by replay) raise :class:`StoreError` until the batch
        exits, and exit trims the torn tail back to the last whole record.
        """
        if self._batch_handle is not None:
            yield self  # nested: the outer batch owns the commit
            return
        # The handle deliberately outlives this statement: every append in
        # the batch shares it, and the finally below closes it.
        self._batch_handle = open(self.path, "ab")  # noqa: SIM115
        self._batch_poisoned = False
        try:
            yield self
        finally:
            handle, self._batch_handle = self._batch_handle, None
            poisoned, self._batch_poisoned = self._batch_poisoned, False
            try:
                try:
                    with self._tracer.start_span("wal.fsync"):
                        WAL_FSYNC.fire()
                        handle.flush()
                        os.fsync(handle.fileno())
                except OSError:
                    # Durability of the framed records is unknown; the next
                    # append must re-derive its sequence from disk.
                    poisoned = True
                    self._next_seq = None
                    raise
            finally:
                handle.close()
                if poisoned:
                    # A failed append may have left a torn frame at the
                    # tail; trim it now so the log is append-ready again.
                    self._next_seq = None
                    try:
                        self.recover()
                    except (OSError, StoreError):
                        pass  # the next append/recover() surfaces it
            if not poisoned:
                self.batch_commits += 1
                self._m_fsyncs.inc()

    def append_add(
        self,
        edge_id: int,
        members: Sequence[int] | np.ndarray,
        pair_ids: Sequence[int] | np.ndarray,
        pair_weights: Sequence[int] | np.ndarray,
        fingerprint: Optional[str] = None,
        name: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> WalRecord:
        """Log one ``add_hyperedge`` (members + precomputed overlap row).

        ``generation`` stamps the snapshot generation the record applies on
        top of; recovery uses it to discard a log that a completed
        compaction already folded in (crash before the post-swap truncate).
        """
        members = np.asarray(members, dtype=np.int64)
        payload = {
            "op": OP_ADD,
            "edge_id": int(edge_id),
            "members": [int(v) for v in members],
            "size": int(members.size),
            "pair_ids": [int(i) for i in np.asarray(pair_ids, dtype=np.int64)],
            "pair_weights": [
                int(w) for w in np.asarray(pair_weights, dtype=np.int64)
            ],
        }
        if fingerprint is not None:
            payload["fingerprint"] = str(fingerprint)
        if name is not None:
            payload["name"] = str(name)
        if generation is not None:
            payload["gen"] = int(generation)
        return WalRecord(seq=self._append(payload), op=OP_ADD, payload=payload)

    def append_remove(
        self,
        edge_id: int,
        fingerprint: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> WalRecord:
        """Log one ``remove_hyperedge`` (see :meth:`append_add` for ``generation``)."""
        payload = {"op": OP_REMOVE, "edge_id": int(edge_id)}
        if fingerprint is not None:
            payload["fingerprint"] = str(fingerprint)
        if generation is not None:
            payload["gen"] = int(generation)
        return WalRecord(seq=self._append(payload), op=OP_REMOVE, payload=payload)

    def truncate(self) -> None:
        """Reset the log to empty (after a compaction folded it in)."""
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._m_fsyncs.inc()
        self._next_seq = 1

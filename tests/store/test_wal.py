"""Write-ahead log framing, replay, and torn-tail crash recovery."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.store import IndexStore
from repro.store.format import WAL_NAME, StoreError, StoreFormatError
from repro.store.replication import wal_payload, wal_suffix_payload
from repro.store.wal import OP_ADD, OP_REMOVE, WriteAheadLog, _frame


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def append_three(wal):
    wal.append_add(4, [0, 1, 5], [0, 1], [2, 1], fingerprint="f1" * 32, name="e4")
    wal.append_remove(1, fingerprint="f2" * 32)
    wal.append_add(5, [2, 3], [2], [1], fingerprint="f3" * 32)


class TestAppendReplay:
    def test_roundtrip(self, wal):
        append_three(wal)
        records, _, torn = wal.replay()
        assert not torn
        assert [r.op for r in records] == [OP_ADD, OP_REMOVE, OP_ADD]
        assert [r.seq for r in records] == [1, 2, 3]
        add = records[0]
        assert add.edge_id == 4
        assert add.payload["members"] == [0, 1, 5]
        assert add.payload["size"] == 3
        assert add.payload["pair_ids"] == [0, 1]
        assert add.payload["pair_weights"] == [2, 1]
        assert add.payload["name"] == "e4"
        assert add.fingerprint == "f1" * 32
        assert records[1].edge_id == 1

    def test_missing_file_is_empty(self, wal):
        records, nbytes, torn = wal.replay()
        assert records == [] and nbytes == 0 and not torn

    def test_len(self, wal):
        assert len(wal) == 0
        append_three(wal)
        assert len(wal) == 3

    def test_truncate_resets(self, wal):
        append_three(wal)
        wal.truncate()
        assert len(wal) == 0
        wal.append_remove(0)
        assert [r.seq for r in wal.recover()] == [1]

    def test_records_accept_numpy_inputs(self, wal):
        wal.append_add(
            7,
            np.array([3, 4], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([2], dtype=np.int64),
        )
        (record,) = wal.recover()
        assert record.payload["members"] == [3, 4]
        assert record.fingerprint is None


class TestCrashRecovery:
    def test_partial_trailing_line_dropped(self, wal):
        append_three(wal)
        with open(wal.path, "ab") as handle:
            handle.write(b"4\t01234567\t{\"op\": \"remove\", \"edge")
        fresh = WriteAheadLog(wal.path)
        records, _, torn = fresh.replay()
        assert torn and len(records) == 3
        assert len(fresh.recover()) == 3
        # The torn bytes are physically gone after recovery.
        _, _, torn = WriteAheadLog(wal.path).replay()
        assert not torn

    def test_corrupt_crc_stops_replay(self, wal):
        append_three(wal)
        data = Path(wal.path).read_bytes().splitlines(keepends=True)
        # Flip a payload byte of record 2: its CRC no longer matches, so
        # replay must stop before it even though record 3 is intact.
        corrupted = data[1][:-3] + b"X" + data[1][-2:]
        with open(wal.path, "wb") as handle:
            handle.write(data[0] + corrupted + data[2])
        records = WriteAheadLog(wal.path).recover()
        assert [r.seq for r in records] == [1]

    def test_sequence_break_stops_replay(self, wal):
        append_three(wal)
        data = Path(wal.path).read_bytes().splitlines(keepends=True)
        with open(wal.path, "wb") as handle:
            handle.write(data[0] + data[2])  # record 2 missing: seq 1 then 3
        records = WriteAheadLog(wal.path).recover()
        assert [r.seq for r in records] == [1]

    def test_append_after_crash_requires_recovery(self, wal):
        append_three(wal)
        with open(wal.path, "ab") as handle:
            handle.write(b"garbage")
        fresh = WriteAheadLog(wal.path)
        with pytest.raises(StoreFormatError, match="torn tail"):
            fresh.append_remove(0)
        fresh.recover()
        record = fresh.append_remove(0)
        assert record.seq == 4

    def test_recovery_is_idempotent(self, wal):
        append_three(wal)
        size = os.path.getsize(wal.path)
        assert len(wal.recover()) == 3
        assert os.path.getsize(wal.path) == size


class _FlakyHandle:
    """Wrap the batch file handle so one write fails like ENOSPC would."""

    def __init__(self, handle):
        self._handle = handle
        self.fail_next = False

    def write(self, data):
        if self.fail_next:
            self.fail_next = False
            raise OSError(28, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestFailedAppendRecovery:
    """Regression (seq-gap bug): a failed append must not burn a sequence
    number.  The old code advanced the sequence *before* the write, so the
    next successful append framed seq N+1 with no seq N on disk — replay
    stopped at the gap and silently discarded every later, durable,
    acknowledged record on recovery."""

    def test_failed_append_does_not_create_a_seq_gap(self, wal, monkeypatch):
        import repro.store.wal as wal_module

        append_three(wal)

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="No space"):
            wal.append_remove(9)
        monkeypatch.undo()

        # The next append reuses the failed record's sequence number...
        record = wal.append_remove(7)
        assert record.seq == 4
        wal.append_add(8, [0, 1], [0], [2])
        # ...and recovery sees every acknowledged record, none lost.
        records = WriteAheadLog(wal.path).recover()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert records[3].edge_id == 7
        assert 9 not in [r.edge_id for r in records]  # never acknowledged

    def test_acknowledged_records_survive_recovery_after_failed_append(
        self, wal, monkeypatch
    ):
        """The acceptance scenario: ack, fail, ack, crash, recover."""
        import repro.store.wal as wal_module

        acked = []
        acked.append(wal.append_add(4, [0, 1], [0], [2]).seq)

        monkeypatch.setattr(
            wal_module.os, "fsync", lambda fd: (_ for _ in ()).throw(OSError(28, "full"))
        )
        with pytest.raises(OSError):
            wal.append_add(5, [1, 2], [1], [1])
        monkeypatch.undo()

        acked.append(wal.append_add(5, [1, 2], [1], [1]).seq)
        acked.append(wal.append_remove(0).seq)
        # A fresh process (crash + restart) replays the log from scratch.
        recovered = WriteAheadLog(wal.path).recover()
        assert [r.seq for r in recovered] == acked == [1, 2, 3]
        assert [r.op for r in recovered] == [OP_ADD, OP_ADD, OP_REMOVE]

    def test_failed_append_poisons_an_open_batch(self, wal):
        with wal.batch():
            wal.append_remove(0)
            flaky = _FlakyHandle(wal._batch_handle)
            wal._batch_handle = flaky
            flaky.fail_next = True
            with pytest.raises(OSError, match="No space"):
                wal.append_remove(1)
            # The broken frame may be torn on disk; later appends would
            # land after the tear and be discarded by replay.
            with pytest.raises(StoreError, match="poisoned"):
                wal.append_remove(2)
        assert wal.batch_commits == 0  # a poisoned batch is not a commit
        # The good prefix survives, the log is append-ready again.
        assert [r.seq for r in wal.replay()[0]] == [1]
        record = wal.append_remove(3)
        assert record.seq == 2
        assert [r.edge_id for r in WriteAheadLog(wal.path).recover()] == [0, 3]

    def test_poisoned_batch_trims_a_torn_frame_on_exit(self, wal):
        class _TearingHandle(_FlakyHandle):
            def write(self, data):
                if self.fail_next:
                    self.fail_next = False
                    self._handle.write(data[: len(data) // 2])  # torn frame
                    raise OSError(5, "Input/output error")
                return self._handle.write(data)

        with wal.batch():
            wal.append_remove(0)
            tearing = _TearingHandle(wal._batch_handle)
            wal._batch_handle = tearing
            tearing.fail_next = True
            with pytest.raises(OSError):
                wal.append_remove(1)
        records, _, torn = WriteAheadLog(wal.path).replay()
        assert not torn  # exit trimmed the half-written frame
        assert [r.seq for r in records] == [1]
        assert wal.append_remove(5).seq == 2


@pytest.mark.parametrize("gen", ["x", True, 1.5, [0]])
def test_non_integer_generation_is_a_typed_format_error(paper_example, tmp_path, gen):
    """A CRC-valid record whose ``gen`` is not an integer (a JSON bool
    included, though ``int(True)`` is 1) is a corrupt log at every reader."""
    path = str(tmp_path / "store")
    IndexStore.build(paper_example, path)
    with open(os.path.join(path, WAL_NAME), "wb") as handle:
        handle.write(_frame(1, {"op": OP_REMOVE, "edge_id": 0, "gen": gen}))
    match = rf"write-ahead log .*{WAL_NAME} record 1 .*non-integer generation"
    with pytest.raises(StoreFormatError, match=match):
        IndexStore.open(path, read_only=True)
    with pytest.raises(StoreFormatError, match=match):
        wal_payload(path, 0, 0)
    with pytest.raises(StoreFormatError, match=match):
        wal_suffix_payload(path, 0, 0, 1)


@pytest.mark.parametrize("fingerprint", [1, True, "xyz", "a" * 63])
def test_malformed_fingerprint_is_a_typed_format_error(
    paper_example, tmp_path, fingerprint
):
    """A CRC-valid record whose ``fingerprint`` is not a 64-character
    lowercase hex string cannot vouch for any state: a corrupt log."""
    path = str(tmp_path / "store")
    IndexStore.build(paper_example, path)
    record = {"op": OP_REMOVE, "edge_id": 0, "gen": 0, "fingerprint": fingerprint}
    with open(os.path.join(path, WAL_NAME), "wb") as handle:
        handle.write(_frame(1, record))
    match = rf"write-ahead log .*{WAL_NAME} record 1 .*fingerprint"
    with pytest.raises(StoreFormatError, match=match):
        IndexStore.open(path, read_only=True)

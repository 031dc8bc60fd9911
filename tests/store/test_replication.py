"""Snapshot replication: payload builders, StoreMirror sync, crash safety.

The mirror's contract is byte-for-byte fidelity: after every sync, the
mirror directory holds exactly the source's snapshot files, manifest and
write-ahead log (the sidecar cursor and writer lock excepted), so any
store reader serves identical answers from either directory.
"""

import json
import os
import zlib
from pathlib import Path

import pytest

from repro.engine.engine import QueryEngine
from repro.store import (
    IndexStore,
    LocalReplicationSource,
    PersistentQueryEngine,
    ReplicationError,
    ReplicationStaleError,
    StoreMirror,
)
from repro.store.format import WAL_NAME, StoreFormatError
from repro.store.replication import (
    MIRROR_STATE_NAME,
    fetch_payload,
    file_crc32,
    manifest_payload,
    wal_payload,
)
from repro.utils.rng import make_rng

#: Files that legitimately differ between a source and its mirror.
_NON_STORE_FILES = {MIRROR_STATE_NAME, "writer.lock"}


def store_files(path):
    """``relative name -> bytes`` of every store file under ``path``."""
    out = {}
    for root, _, files in os.walk(str(path)):
        for name in files:
            if name in _NON_STORE_FILES or name.endswith(".sync"):
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, str(path)).replace(os.sep, "/")
            with open(full, "rb") as handle:
                out[rel] = handle.read()
    return out


def live_store_files(path):
    """``relative name -> bytes`` of the files the live manifest references
    (plus the manifest and WAL) — the state a reader opens.
    A killed sync may leave next-generation files alongside; those are
    invisible to readers and excluded here."""
    from repro.store.format import read_manifest

    manifest = read_manifest(path)
    names = ["manifest.json", WAL_NAME, manifest.hypergraph_file]
    for info in manifest.shards:
        names.append(f"shards/{info.edges_file}")
        names.append(f"shards/{info.weights_file}")
    out = {}
    for name in names:
        full = os.path.join(str(path), *name.split("/"))
        if os.path.isfile(full):
            with open(full, "rb") as handle:
                out[name] = handle.read()
    return out


def assert_byte_identical(source_path, mirror_path):
    source, mirror = store_files(source_path), store_files(mirror_path)
    assert sorted(source) == sorted(mirror)
    for name in source:
        assert source[name] == mirror[name], f"mirror differs from source: {name}"


@pytest.fixture
def source_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "src", num_shards=4)
    return str(tmp_path / "src")


@pytest.fixture
def mirror_path(tmp_path):
    return str(tmp_path / "dst")


@pytest.fixture
def writer(source_path):
    return PersistentQueryEngine.open(source_path)


def random_members(h, rng, size=5):
    return sorted(set(int(v) for v in rng.choice(h.num_vertices, size=size)))


class TestPayloads:
    def test_manifest_payload_lists_every_snapshot_file(self, source_path):
        payload = manifest_payload(source_path)
        store = IndexStore.open(source_path)
        names = {f["name"] for f in payload["files"]}
        for info in store.manifest.shards:
            assert f"shards/{info.edges_file}" in names
            assert f"shards/{info.weights_file}" in names
        assert store.manifest.hypergraph_file in names
        assert len(names) == 2 * len(store.manifest.shards) + 1
        assert payload["generation"] == store.manifest.generation
        assert payload["state_token"] == list(store.current_state_token())
        for entry in payload["files"]:
            full = os.path.join(source_path, *entry["name"].split("/"))
            assert entry["size"] == os.path.getsize(full)
            assert entry["crc32"] == file_crc32(full)

    def test_manifest_payload_caches_checksums(self, source_path):
        cache = {}
        first = manifest_payload(source_path, cache=cache)
        assert cache
        again = manifest_payload(source_path, cache=cache)
        assert first["files"] == again["files"]

    def test_wal_payload_cursor(self, source_path, writer):
        writer.add_hyperedge([0, 1, 2])
        writer.add_hyperedge([1, 2, 3])
        full = wal_payload(source_path, 0, 0)
        assert full["total"] == 2
        assert [r["seq"] for r in full["records"]] == [1, 2]
        tail = wal_payload(source_path, 0, 1)
        assert tail["total"] == 2
        assert [r["seq"] for r in tail["records"]] == [2]
        assert wal_payload(source_path, 0, 2)["records"] == []

    def test_wal_payload_rejects_stale_generation(self, source_path, writer):
        writer.add_hyperedge([0, 1, 2])
        writer.compact()
        with pytest.raises(ReplicationStaleError, match="generation"):
            wal_payload(source_path, 0, 0)

    def test_fetch_payload_chunks_and_bounds(self, source_path):
        store = IndexStore.open(source_path)
        name = store.manifest.hypergraph_file
        size = os.path.getsize(os.path.join(source_path, name))
        first = fetch_payload(source_path, name, 0, 0, 16, raw=True)
        assert first["size"] == size and len(first["data"]) == 16
        assert first["eof"] is (size <= 16)
        rest = fetch_payload(source_path, name, 0, 16, size, raw=True)
        assert rest["eof"] is True
        with open(os.path.join(source_path, name), "rb") as handle:
            assert first["data"] + rest["data"] == handle.read()

    def test_fetch_payload_is_base64_on_the_wire(self, source_path):
        import base64

        store = IndexStore.open(source_path)
        name = store.manifest.hypergraph_file
        wire = fetch_payload(source_path, name, 0, 0, 16)
        assert isinstance(wire["data"], str)
        assert base64.b64decode(wire["data"]) == fetch_payload(
            source_path, name, 0, 0, 16, raw=True
        )["data"]

    def test_fetch_payload_refuses_non_snapshot_files(self, source_path):
        from repro.utils.validation import ValidationError

        for name in (WAL_NAME, "../secrets", "manifest.json", "shards/nope.npy"):
            with pytest.raises((ValidationError, ReplicationStaleError)):
                fetch_payload(source_path, name, 0, 0, 1024)

    def test_fetch_payload_rejects_stale_generation(self, source_path, writer):
        store = IndexStore.open(source_path)
        name = f"shards/{store.manifest.shards[0].edges_file}"
        writer.add_hyperedge([0, 1, 2])
        writer.compact()  # sweeps generation-0 files
        with pytest.raises(ReplicationStaleError):
            fetch_payload(source_path, name, 0, 0, 1024)


class TestStoreMirror:
    def test_bootstrap_is_byte_identical(self, source_path, mirror_path):
        mirror = StoreMirror(LocalReplicationSource(source_path), mirror_path)
        report = mirror.sync()
        assert report.full_sync and report.changed
        assert report.fetched_files > 0
        assert_byte_identical(source_path, mirror_path)
        # The mirror is a fully functional store.
        engine = PersistentQueryEngine.open(mirror_path, read_only=True)
        source = PersistentQueryEngine.open(source_path, read_only=True)
        assert engine.fingerprint() == source.fingerprint()
        assert engine.metric_by_hyperedge(2, "pagerank") == pytest.approx(
            source.metric_by_hyperedge(2, "pagerank")
        )

    def test_wal_tail_rides_delta_syncs(self, source_path, mirror_path, writer):
        mirror = StoreMirror(LocalReplicationSource(source_path), mirror_path)
        mirror.sync()
        rng = make_rng(3)
        for _ in range(4):
            writer.add_hyperedge(random_members(writer.hypergraph, rng))
        writer.remove_hyperedge(1)
        report = mirror.sync()
        assert not report.full_sync
        assert report.fetched_files == 0 and report.wal_records == 5
        assert_byte_identical(source_path, mirror_path)
        # Appending again moves only the new tail.
        writer.add_hyperedge(random_members(writer.hypergraph, rng))
        report = mirror.sync()
        assert report.wal_records == 1
        assert_byte_identical(source_path, mirror_path)

    def test_noop_sync_reports_unchanged(self, source_path, mirror_path):
        mirror = StoreMirror(LocalReplicationSource(source_path), mirror_path)
        mirror.sync()
        report = mirror.sync()
        assert not report.changed and report.wal_records == 0

    def test_compaction_delta_reuses_unchanged_shards(
        self, source_path, mirror_path, writer
    ):
        mirror = StoreMirror(LocalReplicationSource(source_path), mirror_path)
        mirror.sync()
        # Remove-only updates keep the row partition, so compaction
        # rewrites every shard *name* but changes few shard *contents* —
        # the delta sync must satisfy the unchanged ones locally.
        writer.remove_hyperedge(3)
        writer.compact()
        report = mirror.sync()
        assert report.full_sync
        assert report.reused_files > 0
        assert_byte_identical(source_path, mirror_path)
        assert mirror.generation == 1

    def test_updates_and_compaction_match_pipeline_oracle(
        self, source_path, mirror_path, writer
    ):
        """The acceptance loop: mirror across live updates and a
        compaction, cross-checking served metrics against a from-scratch
        engine on the writer's current hypergraph."""
        mirror = StoreMirror(LocalReplicationSource(source_path), mirror_path)
        rng = make_rng(11)
        for phase in range(3):
            for _ in range(3):
                writer.add_hyperedge(random_members(writer.hypergraph, rng))
            if phase == 1:
                writer.remove_hyperedge(int(rng.integers(writer.hypergraph.num_edges)))
            if phase == 2:
                writer.compact()
            mirror.sync()
            assert_byte_identical(source_path, mirror_path)
            served = PersistentQueryEngine.open(mirror_path, read_only=True)
            oracle = QueryEngine(writer.hypergraph)
            for s in (1, 2, 3):
                assert served.line_graph(s) == oracle.line_graph(s), (phase, s)
                assert served.metric_by_hyperedge(s, "pagerank") == pytest.approx(
                    oracle.metric_by_hyperedge(s, "pagerank")
                ), (phase, s)


class _HostileSource(LocalReplicationSource):
    """A source whose ``repl_manifest`` lists a file outside the store, and
    serves its bytes when asked."""

    def __init__(self, path, tamper):
        super().__init__(path)
        self.tamper = tamper
        self.manifests = 0

    def repl_manifest(self):
        self.manifests += 1
        payload = dict(super().repl_manifest())
        self.tamper(payload)
        return payload

    def repl_fetch(self, name, generation, offset, length, raw=True):
        if name.startswith(".."):
            return {"data": b"planted"[offset : offset + length]}
        return super().repl_fetch(name, generation, offset, length, raw=raw)


def _list_escape(payload):
    escape = {"name": "../escaped.bin", "size": 7, "crc32": zlib.crc32(b"planted")}
    payload["files"] = list(payload["files"]) + [escape]


def _name_escape_in_manifest(payload):
    raw = json.loads(payload["manifest_json"])
    raw["hypergraph_file"] = "../escaped.bin"
    payload["manifest_json"] = json.dumps(raw)
    _list_escape(payload)
    payload["files"] = [f for f in payload["files"] if not f["name"].endswith(".npz")]


class TestHostileSource:
    @pytest.mark.parametrize(
        "tamper, error",
        [(_list_escape, ReplicationError), (_name_escape_in_manifest, StoreFormatError)],
        ids=["files_list", "manifest"],
    )
    def test_a_file_outside_the_mirror_is_refused_once(
        self, source_path, tmp_path, tamper, error
    ):
        """A source naming a file outside the store gets a typed error on the
        first try, and no byte lands outside the mirror's directory."""
        source = _HostileSource(source_path, tamper)
        outside = set(os.listdir(tmp_path))
        mirror = StoreMirror(source, tmp_path / "dst")
        with pytest.raises(error):
            mirror.sync()
        assert source.manifests == 1  # not retried
        assert set(os.listdir(tmp_path)) == outside | {"dst"}
        assert not (tmp_path / "escaped.bin").exists()


class _KilledSync(Exception):
    """Stands in for SIGKILL: aborts a sync at an arbitrary point."""


class _FlakySource:
    """A replication source that dies after ``fail_after`` fetch chunks."""

    def __init__(self, inner, fail_after):
        self._inner = inner
        self.fail_after = fail_after
        self.fetches = 0

    def repl_manifest(self):
        return self._inner.repl_manifest()

    def repl_wal_suffix(self, generation, after_bytes, next_seq):
        if self.fail_after is not None and self.fetches >= self.fail_after:
            raise _KilledSync()
        return self._inner.repl_wal_suffix(generation, after_bytes, next_seq)

    def repl_fetch(self, name, generation, offset, length):
        self.fetches += 1
        if self.fail_after is not None and self.fetches > self.fail_after:
            raise _KilledSync()
        return self._inner.repl_fetch(name, generation, offset, length)


class TestCrashSafety:
    @pytest.mark.parametrize("fail_after", [0, 1, 3, 5])
    def test_killed_bootstrap_recovers_on_next_sync(
        self, source_path, mirror_path, fail_after
    ):
        source = LocalReplicationSource(source_path)
        flaky = _FlakySource(source, fail_after)
        mirror = StoreMirror(flaky, mirror_path)
        with pytest.raises(_KilledSync):
            mirror.sync()
        # Nothing was installed: no manifest, so no reader opens it.
        assert not IndexStore.exists(mirror_path)
        # A fresh mirror process finishes the job.
        resumed = StoreMirror(source, mirror_path)
        resumed.sync()
        assert_byte_identical(source_path, mirror_path)

    @pytest.mark.parametrize("fail_after", [0, 2, 4])
    def test_killed_delta_sync_keeps_serving_the_old_state(
        self, source_path, mirror_path, writer, fail_after
    ):
        """A sync killed mid-fetch never corrupts the mirror: the previous
        generation keeps serving, and the next sync completes the delta."""
        source = LocalReplicationSource(source_path)
        mirror = StoreMirror(source, mirror_path)
        mirror.sync()
        before = live_store_files(mirror_path)
        old_answers = PersistentQueryEngine.open(
            mirror_path, read_only=True
        ).metric_by_hyperedge(2, "pagerank")

        writer.add_hyperedge([0, 1, 2, 3])
        writer.compact()
        flaky = _FlakySource(source, fail_after)
        killed = StoreMirror(flaky, mirror_path)
        with pytest.raises(_KilledSync):
            killed.sync()
        # The mirror still serves its previous, consistent state
        # (next-generation files may linger; readers never see them).
        assert live_store_files(mirror_path) == before
        survivor = PersistentQueryEngine.open(mirror_path, read_only=True)
        assert survivor.metric_by_hyperedge(2, "pagerank") == pytest.approx(old_answers)
        # The next sync (fresh process) completes and converges.
        StoreMirror(source, mirror_path).sync()
        assert_byte_identical(source_path, mirror_path)

    def test_a_killed_fetch_leaves_nothing_once_a_later_generation_lands(
        self, source_path, mirror_path, writer
    ):
        """A bootstrap killed while fetching the hypergraph copy (the last
        file) leaves its temporary; a sync of a later generation sweeps it,
        so the mirror holds exactly the files its manifest names."""
        source = LocalReplicationSource(source_path)
        shard_files = 2 * len(writer.store.manifest.shards)
        with pytest.raises(_KilledSync):
            StoreMirror(_FlakySource(source, shard_files), mirror_path).sync()
        assert "g0-hypergraph.npz.sync" in os.listdir(mirror_path)
        writer.add_hyperedge([0, 1, 2])
        writer.compact()
        StoreMirror(source, mirror_path).sync()
        manifest = IndexStore.open(mirror_path, read_only=True).manifest
        expected = {"manifest.json", WAL_NAME, MIRROR_STATE_NAME, *manifest.file_names()}
        on_disk = {
            os.path.relpath(os.path.join(root, name), mirror_path).replace(os.sep, "/")
            for root, _, names in os.walk(mirror_path)
            for name in names
        }
        assert on_disk == expected
        assert_byte_identical(source_path, mirror_path)

    def test_source_wal_shrink_triggers_full_log_rewrite(
        self, source_path, mirror_path, writer
    ):
        """A restarted writer can legitimately shrink the log (torn-tail
        truncation); the mirror detects the cursor overrun and rewrites."""
        source = LocalReplicationSource(source_path)
        mirror = StoreMirror(source, mirror_path)
        writer.add_hyperedge([0, 1, 2])
        writer.add_hyperedge([1, 2, 3])
        mirror.sync()
        assert mirror.wal_seq == 2
        # Simulate a writer restart that truncated the whole log and then
        # logged one fresh record.
        writer.store.wal.truncate()
        writer.store._records = []
        writer.add_hyperedge([2, 3, 4])
        report = mirror.sync()
        assert report.changed
        assert mirror.wal_seq == 1
        assert_byte_identical(source_path, mirror_path)

    def test_sync_retries_through_a_racing_compaction(
        self, source_path, mirror_path, writer
    ):
        """A compaction landing between the manifest read and the fetches
        answers ReplicationStaleError; sync() restarts and converges."""
        source = LocalReplicationSource(source_path)

        class _CompactingSource(_FlakySource):
            def __init__(self, inner):
                super().__init__(inner, None)
                self.compacted = False

            def repl_fetch(self, name, generation, offset, length):
                if not self.compacted:
                    self.compacted = True
                    writer.add_hyperedge([0, 1, 2, 3])
                    writer.compact()  # sweeps the pinned generation
                return self._inner.repl_fetch(name, generation, offset, length)

        mirror = StoreMirror(_CompactingSource(source), mirror_path)
        report = mirror.sync()
        assert report.full_sync
        assert_byte_identical(source_path, mirror_path)
        assert mirror.generation == 1

    def test_sync_gives_up_after_bounded_retries(self, source_path, mirror_path):
        source = LocalReplicationSource(source_path)

        class _AlwaysStale(_FlakySource):
            def repl_manifest(self):
                raise ReplicationStaleError("the source never holds still")

        mirror = StoreMirror(_AlwaysStale(source, None), mirror_path, sync_retries=3)
        with pytest.raises(ReplicationError, match="3 attempts"):
            mirror.sync()


class TestByteOffsetCursor:
    """The protocol v2 WAL cursor: raw suffix reads after (generation,
    byte offset), with rebase on any divergence under the cursor."""

    def test_suffix_payload_reads_only_the_tail(self, source_path, writer):
        from repro.store.replication import wal_suffix_payload

        writer.add_hyperedge([0, 1, 2])
        writer.add_hyperedge([1, 2, 3])
        wal_file = os.path.join(source_path, WAL_NAME)
        log = Path(wal_file).read_bytes()

        full = wal_suffix_payload(source_path, 0, 0, 1, raw=True)
        assert not full["rebase"]
        assert full["count"] == 2 and full["next_seq"] == 3
        assert full["data"] == log and full["end_offset"] == len(log)

        first_line_end = log.index(b"\n") + 1
        tail = wal_suffix_payload(source_path, 0, first_line_end, 2, raw=True)
        assert not tail["rebase"]
        assert tail["count"] == 1 and tail["data"] == log[first_line_end:]

        done = wal_suffix_payload(source_path, 0, len(log), 3, raw=True)
        assert not done["rebase"] and done["count"] == 0 and done["data"] == b""

    def test_suffix_payload_rebases_on_divergence(self, source_path, writer):
        from repro.store.replication import wal_suffix_payload

        writer.add_hyperedge([0, 1, 2])
        log = Path(source_path, WAL_NAME).read_bytes()
        # Cursor past the file (the log shrank under the reader).
        assert wal_suffix_payload(source_path, 0, len(log) + 10, 2)["rebase"]
        # Sequence mismatch at the cursor (the tail was rewritten).
        assert wal_suffix_payload(source_path, 0, 0, 7)["rebase"]
        # Mid-line offset: the bytes there do not parse as a record start.
        assert wal_suffix_payload(source_path, 0, 3, 1)["rebase"]

    def test_log_stamped_with_the_previous_generation_reads_empty(
        self, source_path, writer
    ):
        """The crash window between a compaction's manifest swap and its
        log truncate: the manifest is at g, the log still stamped g - 1.
        Both read modes answer as a recovering open would: no records."""
        from repro.store.replication import wal_suffix_payload

        writer.add_hyperedge([0, 1, 2])
        writer.add_hyperedge([1, 2, 3])
        wal_file = Path(source_path, WAL_NAME)
        stale_log = wal_file.read_bytes()
        writer.compact()
        wal_file.write_bytes(stale_log)
        first_line_end = stale_log.index(b"\n") + 1
        for after_bytes, next_seq in ((0, 1), (first_line_end, 2)):
            suffix = wal_suffix_payload(source_path, 1, after_bytes, next_seq, raw=True)
            assert not suffix["rebase"]
            assert suffix["count"] == 0 and suffix["data"] == b""
            assert suffix["end_offset"] == after_bytes
            assert suffix["next_seq"] == next_seq
        assert wal_payload(source_path, 1, 0)["records"] == []

    def test_suffix_payload_rebases_on_an_undecodable_first_body(
        self, source_path, writer
    ):
        """A frame whose CRC holds but whose body is not a record cannot be
        told apart from a diverged log: the mirror rebases."""
        from repro.store.replication import wal_suffix_payload

        body = b"[not, a record"
        line = b"1\t%08x\t" % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
        Path(source_path, WAL_NAME).write_bytes(line)
        assert wal_suffix_payload(source_path, 0, 0, 1)["rebase"]

    def test_suffix_payload_rejects_stale_generation(self, source_path, writer):
        from repro.store.replication import wal_suffix_payload

        writer.add_hyperedge([0, 1, 2])
        writer.compact()
        with pytest.raises(ReplicationStaleError, match="generation"):
            wal_suffix_payload(source_path, 0, 0, 1)

    def test_cursor_delta_appends_raw_suffix(self, source_path, mirror_path, writer):
        """Intact polls are served by suffix appends alone."""
        source = LocalReplicationSource(source_path)
        mirror = StoreMirror(source, mirror_path)
        mirror.sync()
        rng = make_rng(5)
        for _ in range(3):
            writer.add_hyperedge(random_members(writer.hypergraph, rng))
        report = mirror.sync()
        assert not report.full_sync and report.wal_records == 3
        assert mirror.wal_seq == 3
        assert_byte_identical(source_path, mirror_path)
        # An idle poll moves nothing.
        assert not mirror.sync().changed
        writer.add_hyperedge(random_members(writer.hypergraph, rng))
        assert mirror.sync().wal_records == 1
        assert_byte_identical(source_path, mirror_path)

    def test_cursor_rebases_when_the_log_shrinks(
        self, source_path, mirror_path, writer
    ):
        """A writer restart that truncated the log leaves the mirror's
        byte cursor past end-of-file; the next cursor poll detects the
        overrun, rebases to offset 0 and rewrites the local log."""
        source = LocalReplicationSource(source_path)
        mirror = StoreMirror(source, mirror_path)
        writer.add_hyperedge([0, 1, 2])
        writer.add_hyperedge([1, 2, 3])
        writer.add_hyperedge([2, 3, 4])
        mirror.sync()
        assert mirror.wal_seq == 3
        # Restarted writer: whole log truncated, then one fresh record —
        # strictly shorter than the mirror's byte cursor.
        writer.store.wal.truncate()
        writer.store._records = []
        writer.add_hyperedge([3, 4, 5])
        report = mirror.sync()
        assert report.changed
        assert mirror.wal_seq == 1
        assert_byte_identical(source_path, mirror_path)

    def test_cursor_rebases_when_the_tail_diverges(
        self, source_path, mirror_path, writer
    ):
        """Same-length log whose records differ under the cursor: the CRC
        and sequence checks refuse the suffix and force the rewrite."""
        source = LocalReplicationSource(source_path)
        mirror = StoreMirror(source, mirror_path)
        writer.add_hyperedge([0, 1, 2])
        mirror.sync()
        assert mirror.wal_seq == 1
        writer.store.wal.truncate()
        writer.store._records = []
        writer.add_hyperedge([5, 6, 7])  # fresh record, same seq number
        writer.add_hyperedge([6, 7, 8])
        report = mirror.sync()
        assert report.changed
        assert mirror.wal_seq == 2
        assert_byte_identical(source_path, mirror_path)

    @pytest.mark.parametrize(
        "answer",
        [
            {"generation": 0, "mode": "suffix", "after_bytes": 0, "rebase": True},
            {"generation": 0, "total": 0, "after_seq": 0, "records": []},
        ],
        ids=["rebase-at-origin", "record-mode-shape"],
    )
    def test_unusable_cursor_answer_exhausts_the_retry_bound(
        self, source_path, mirror_path, answer
    ):
        """A rebase with nowhere left to rebase to, or an answer without
        data/count, restarts the sync from a fresh manifest — boundedly —
        instead of switching to another tail shape."""

        class _BadTail(_FlakySource):
            polls = 0

            def repl_wal_suffix(self, generation, after_bytes, next_seq):
                self.polls += 1
                return dict(answer)

        source = _BadTail(LocalReplicationSource(source_path), None)
        mirror = StoreMirror(source, mirror_path, sync_retries=3)
        with pytest.raises(ReplicationError, match="3 attempts"):
            mirror.sync()
        assert source.polls == 3
        assert not IndexStore.exists(mirror_path)  # nothing was installed

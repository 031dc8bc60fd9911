"""IndexStore lifecycle: build/open, durable updates, crash recovery, compaction."""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.engine.engine import QueryEngine
from repro.engine.index import OverlapIndex
from repro.service import QueryService
from repro.store.format import HYPERGRAPH_NAME, StoreError, StoreFormatError, WAL_NAME
from repro.store.persistent import PersistentQueryEngine
from repro.store.replication import LocalReplicationSource, StoreMirror
from repro.store.store import IndexStore
from repro.utils.rng import make_rng


@pytest.fixture
def store(community_hypergraph, tmp_path):
    return IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)


def random_members(h, rng, size=5):
    return np.unique(rng.choice(h.num_vertices, size=size, replace=False)).tolist()


def updated_engine(store, n_adds=3, n_removes=2, seed=3):
    """Apply a deterministic update mix through a persistent engine."""
    engine = PersistentQueryEngine(store)
    rng = make_rng(seed)
    for _ in range(n_adds):
        engine.add_hyperedge(random_members(engine.hypergraph, rng))
    for _ in range(n_removes):
        engine.remove_hyperedge(int(rng.integers(engine.hypergraph.num_edges)))
    return engine


class TestBuildOpen:
    def test_build_then_open_round_trips(self, store, community_hypergraph):
        reopened = IndexStore.open(store.path)
        assert reopened.manifest.fingerprint == community_hypergraph.fingerprint()
        oracle = OverlapIndex.build(community_hypergraph)
        loaded = reopened.sharded_index()
        for s in range(1, oracle.max_weight + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s
        assert reopened.load_hypergraph() == community_hypergraph

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(StoreFormatError):
            IndexStore.open(tmp_path / "nowhere")


def _built(h, root):
    return IndexStore.build(h, root / "idx", num_shards=2).path, h


def _from_index(h, root):
    index = OverlapIndex.build(h)
    store = IndexStore.from_index(index, h.fingerprint(), root / "idx", hypergraph=h)
    return store.path, h


def _compacted(h, root):
    engine = updated_engine(IndexStore.build(h, root / "idx", num_shards=2))
    engine.compact()
    return engine.store.path, engine.hypergraph


def _mirrored(h, root, delta=False):
    source = IndexStore.build(h, root / "source", num_shards=2)
    mirror = StoreMirror(LocalReplicationSource(source.path), root / "mirror")
    assert mirror.sync().full_sync
    if delta:
        h = updated_engine(source).hypergraph
        assert not mirror.sync().full_sync
    return mirror.path, h


class TestOneStoreShape:
    """Every store carries its source hypergraph, and opens from it alone."""

    @pytest.mark.parametrize(
        "produce",
        [
            _built,
            _from_index,
            _compacted,
            _mirrored,
            lambda h, root: _mirrored(h, root, delta=True),
        ],
        ids=["build", "from_index", "compact", "full_sync", "delta_sync"],
    )
    def test_every_writer_leaves_the_hypergraph_copy(
        self, produce, community_hypergraph, tmp_path
    ):
        path, expected = produce(community_hypergraph, tmp_path)
        assert os.path.isfile(os.path.join(path, HYPERGRAPH_NAME))
        engine = PersistentQueryEngine.open(path, read_only=True)
        assert engine.hypergraph == expected
        engine.close()

    @pytest.mark.parametrize(
        "open_store",
        [
            PersistentQueryEngine.open,
            lambda path: QueryService(path, read_only=True),
            lambda path: LocalReplicationSource(path).repl_manifest(),
        ],
        ids=["engine_open", "read_only_service", "repl_manifest"],
    )
    def test_a_missing_copy_is_a_typed_error(self, open_store, store):
        os.remove(os.path.join(store.path, HYPERGRAPH_NAME))
        with pytest.raises(StoreError, match=HYPERGRAPH_NAME):
            open_store(store.path)


class TestDurableUpdates:
    def test_wal_replays_into_current_state(self, store, community_hypergraph):
        engine = updated_engine(store)
        # A brand-new process: open the store and compare every s against a
        # from-scratch engine over the updated hypergraph.
        reopened = IndexStore.open(store.path)
        assert reopened.num_wal_records() == 5
        assert reopened.current_fingerprint() == engine.fingerprint()
        h = reopened.load_hypergraph()
        assert h.fingerprint() == engine.fingerprint()
        oracle = QueryEngine(h)
        loaded = reopened.sharded_index()
        for s in range(1, max(loaded.max_weight, 1) + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s

    def test_crash_mid_append_recovers_prefix(self, store, community_hypergraph):
        engine = updated_engine(store, n_adds=2, n_removes=1)
        fp_before = engine.fingerprint()
        wal_path = os.path.join(store.path, WAL_NAME)
        with open(wal_path, "ab") as handle:
            handle.write(b'4\t00000000\t{"op": "add", "edge_id"')  # torn append
        reopened = IndexStore.open(store.path)
        assert reopened.recovered_torn_tail
        assert reopened.num_wal_records() == 3
        assert reopened.current_fingerprint() == fp_before
        # The acknowledged prefix fully survives.
        oracle = QueryEngine(reopened.load_hypergraph())
        loaded = reopened.sharded_index()
        for s in range(1, max(loaded.max_weight, 1) + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s

    def test_subprocess_killed_mid_append_recovers(self, store):
        """A real process dying mid-write leaves a recoverable store."""
        script = (
            "import os, sys\n"
            "from repro.store import IndexStore\n"
            "from repro.store.wal import _frame\n"
            "store = IndexStore.open(sys.argv[1])\n"
            "store.append_remove(0, fingerprint='a0' * 32)\n"
            "store.append_remove(1, fingerprint='a1' * 32)\n"
            "frame = _frame(3, {'op': 'remove', 'edge_id': 2})\n"
            "with open(store.wal.path, 'ab') as handle:\n"
            "    handle.write(frame[: len(frame) // 2])\n"
            "    handle.flush()\n"
            "    os.fsync(handle.fileno())\n"
            "os._exit(9)\n"  # die without cleanup, torn record on disk
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, store.path], env=env, capture_output=True
        )
        assert proc.returncode == 9, proc.stderr.decode()
        reopened = IndexStore.open(store.path)
        assert reopened.recovered_torn_tail
        assert [r.edge_id for r in reopened.wal_records] == [0, 1]
        assert reopened.current_fingerprint() == "a1" * 32


class TestHeldRecords:
    def test_an_add_is_held_as_arrays_whether_appended_or_recovered(self, store):
        """A writer holds every record it logs until a compaction, so an
        add's rows are held as int64 arrays — the same whether the record was
        appended in this process or recovered from the log on open — and
        the index and hypergraph folded from either are the same."""
        engine = updated_engine(store, n_adds=4, n_removes=2)
        reopened = IndexStore.open(store.path, read_only=True)
        appended, recovered = store.wal_records, reopened.wal_records
        assert [r.op for r in appended].count("add") == 4
        assert [(r.seq, r.op) for r in appended] == [(r.seq, r.op) for r in recovered]
        for mine, theirs in zip(appended, recovered):
            if mine.op != "add":
                continue
            for key in ("members", "pair_ids", "pair_weights"):
                for record in (mine, theirs):
                    assert isinstance(record.payload[key], np.ndarray), key
                    assert record.payload[key].dtype == np.int64, key
                assert mine.payload[key].tobytes() == theirs.payload[key].tobytes(), key
        assert reopened.load_hypergraph().fingerprint() == engine.fingerprint()
        held, logged = store.sharded_index(), reopened.sharded_index()
        for s in range(1, max(logged.max_weight, 1) + 1):
            assert held.line_graph(s) == logged.line_graph(s), s


class TestCompaction:
    def test_compact_folds_wal_and_bumps_generation(self, store):
        engine = updated_engine(store)
        fp = engine.fingerprint()
        oracle = QueryEngine(engine.hypergraph)
        manifest = store.compact()
        assert manifest.generation == 1
        assert store.num_wal_records() == 0
        assert manifest.fingerprint == fp
        assert manifest.provenance["compacted_wal_records"] == 5
        reopened = IndexStore.open(store.path)
        assert reopened.current_fingerprint() == fp
        loaded = reopened.sharded_index()
        for s in range(1, max(loaded.max_weight, 1) + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s

    def test_old_generation_files_removed(self, store):
        old_files = set(os.listdir(os.path.join(store.path, "shards")))
        updated_engine(store, n_adds=1, n_removes=0)
        store.compact()
        new_files = set(os.listdir(os.path.join(store.path, "shards")))
        assert not (old_files & new_files)
        assert all(name.startswith("g1-") for name in new_files)
        # The superseded generation's edge-size file is swept too.
        size_files = [
            n for n in os.listdir(store.path) if n.endswith("edge_sizes.npy")
        ]
        assert size_files == [store.manifest.edge_sizes_file]

    def test_interleaved_update_compact_cycles(self, store, community_hypergraph):
        """Updates and compactions interleaved stay faithful to the oracle."""
        rng = make_rng(17)
        engine = PersistentQueryEngine(store)
        for cycle in range(3):
            for _ in range(2):
                engine.add_hyperedge(random_members(engine.hypergraph, rng))
            engine.remove_hyperedge(int(rng.integers(engine.hypergraph.num_edges)))
            store.compact()
            assert store.num_wal_records() == 0
            assert store.manifest.generation == cycle + 1
            # A cold open after every cycle matches a from-scratch engine.
            reopened = IndexStore.open(store.path)
            oracle = QueryEngine(reopened.load_hypergraph())
            sharded = reopened.sharded_index()
            for s in (1, 2, 3, 5):
                assert sharded.line_graph(s) == oracle.line_graph(s), (cycle, s)

    def test_reshard_on_compact(self, store):
        manifest = store.compact(num_shards=9)
        assert len(manifest.shards) == 9
        assert sum(i.num_pairs for i in manifest.shards) == manifest.num_pairs


class TestCompactionCrashWindows:
    """Crashes at every point inside compact() must leave a correct store."""

    def test_crash_before_wal_truncate_discards_stale_log(self, store):
        """Manifest swapped, WAL left behind: records are stale by their
        generation stamp and must be discarded, never double-applied."""
        engine = updated_engine(store, n_adds=2, n_removes=1)
        oracle = QueryEngine(engine.hypergraph)
        wal_path = os.path.join(store.path, WAL_NAME)
        stale_log = Path(wal_path).read_bytes()
        store.compact()
        # Simulate dying between the manifest swap and the truncate.
        with open(wal_path, "wb") as handle:
            handle.write(stale_log)
        reopened = IndexStore.open(store.path)
        assert reopened.discarded_stale_wal
        assert reopened.num_wal_records() == 0
        assert os.path.getsize(wal_path) == 0  # physically truncated
        loaded = reopened.sharded_index()
        for s in range(1, max(loaded.max_weight, 1) + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s
        assert reopened.load_hypergraph().fingerprint() == engine.fingerprint()

    def test_crash_after_hypergraph_swap_before_manifest(self, store):
        """Updated hypergraph.npz in place, old manifest + live WAL: the
        fingerprint check must recognise the copy as current and skip the
        replay (no double-applied edges)."""
        from repro.store.store import _save_hypergraph_atomic

        engine = updated_engine(store, n_adds=2, n_removes=0)
        current = engine.hypergraph
        _save_hypergraph_atomic(
            current, os.path.join(store.path, "hypergraph.npz")
        )
        reopened = IndexStore.open(store.path)
        assert reopened.num_wal_records() == 2  # WAL still authoritative
        recovered = reopened.load_hypergraph()
        assert recovered.num_edges == current.num_edges
        assert recovered.fingerprint() == current.fingerprint()

    def test_inconsistent_hypergraph_detected(self, store, paper_example):
        """A saved copy matching neither the base nor the current state is
        reported loudly instead of silently mis-replayed."""
        from repro.store.store import _save_hypergraph_atomic

        updated_engine(store, n_adds=1, n_removes=0)
        _save_hypergraph_atomic(
            paper_example, os.path.join(store.path, "hypergraph.npz")
        )
        reopened = IndexStore.open(store.path)
        with pytest.raises(Exception, match="inconsistent"):
            reopened.load_hypergraph()

    def test_sharded_engine_survives_its_own_compaction(self, store):
        """Compaction sweeps the old generation's files; a sharded engine
        must re-open against the new generation, not the unlinked mmaps."""
        engine = PersistentQueryEngine(store, max_resident_shards=1)
        engine.add_hyperedge([0, 1, 2, 3])
        before = {s: engine.line_graph(s) for s in (1, 2, 3)}
        engine.compact()
        engine._cache.clear()  # force re-reads through the (new) shards
        for s in (1, 2, 3):
            assert engine.line_graph(s) == before[s], s

    def test_rebuild_continues_generation_and_sweeps_orphans(
        self, store, paper_example
    ):
        updated_engine(store, n_adds=1, n_removes=0)
        store.compact()  # generation 1
        rebuilt = IndexStore.build(paper_example, store.path, num_shards=2)
        assert rebuilt.manifest.generation == 2
        shard_files = os.listdir(os.path.join(store.path, "shards"))
        assert shard_files and all(f.startswith("g2-") for f in shard_files)
        # The rebuilt store serves the new hypergraph.
        oracle = QueryEngine(paper_example)
        assert rebuilt.sharded_index().line_graph(2) == oracle.line_graph(2)


def _member_compression(path):
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


class TestDeflatedHypergraphCopy:
    """Stores whose ``hypergraph.npz`` members are deflated (the layout
    before the copy was written stored) open and serve unchanged at the
    same format version; their next compaction rewrites the copy stored,
    and a mirror of them stays byte-identical throughout."""

    def test_deflated_copy_opens_compacts_and_mirrors(
        self, community_hypergraph, tmp_path
    ):
        from repro.chaos.harness import diff_stores
        from repro.core.pipeline import SLinePipeline
        from repro.hypergraph.builders import hypergraph_from_edge_lists
        from repro.store.format import FORMAT_VERSION

        assert FORMAT_VERSION == 2
        store = IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
        copy = os.path.join(store.path, HYPERGRAPH_NAME)
        assert _member_compression(copy) == {zipfile.ZIP_STORED}
        with np.load(copy) as data:
            members = {name: data[name] for name in data.files}
        np.savez_compressed(copy, **members)
        assert _member_compression(copy) == {zipfile.ZIP_DEFLATED}

        cc = "connected_components"
        oracle = SLinePipeline(
            metrics=(cc,), drop_empty_edges=False, drop_isolated_vertices=False
        )
        num_vertices = community_hypergraph.num_vertices
        model = [m.tolist() for _, m in community_hypergraph.iter_edges()]

        def assert_serves_the_model(engine):
            h = hypergraph_from_edge_lists(model, num_vertices=num_vertices)
            assert engine.fingerprint() == h.fingerprint()
            for s in (1, 2, 3):
                expected = oracle.run(h, s).metric_by_hyperedge(cc)
                assert engine.metric_by_hyperedge(s, cc) == expected, s

        engine = PersistentQueryEngine.open(store.path)
        assert_serves_the_model(engine)
        mirror = StoreMirror(LocalReplicationSource(store.path), tmp_path / "mirror")
        assert mirror.sync().full_sync
        assert diff_stores(store.path, mirror.path) == []

        rng = make_rng(11)
        for _ in range(3):
            added = random_members(engine.hypergraph, rng)
            assert engine.add_hyperedge(added) == len(model)
            model.append(added)
        engine.remove_hyperedge(0)
        model[0] = []
        engine.compact()
        assert _member_compression(copy) == {zipfile.ZIP_STORED}
        assert IndexStore.open(store.path).manifest.format_version == FORMAT_VERSION
        assert_serves_the_model(engine)
        engine.close()

        mirror.sync()
        assert diff_stores(store.path, mirror.path) == []
        for path in (store.path, mirror.path):
            reader = PersistentQueryEngine.open(path, read_only=True)
            assert_serves_the_model(reader)
            reader.close()

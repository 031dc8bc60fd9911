"""Read-only store handles: write rejection and non-destructive recovery."""

import os

import pytest

from repro.engine.index import OverlapIndex
from repro.store.format import ReadOnlyStoreError, WAL_NAME
from repro.store.persistent import PersistentQueryEngine
from repro.store.store import IndexStore


@pytest.fixture
def store(community_hypergraph, tmp_path):
    return IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)


class TestReadOnlyOpen:
    def test_writes_rejected_with_clear_error(self, store):
        handle = IndexStore.open(store.path, read_only=True)
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            handle.append_add(0, [0, 1], [], [], fingerprint="fp")
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            handle.append_remove(0)
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            handle.compact()
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            with handle.batch():
                pass
        # Nothing reached the log.
        assert handle.num_wal_records() == 0
        assert IndexStore.open(store.path).num_wal_records() == 0

    def test_reads_still_work(self, store, community_hypergraph):
        handle = IndexStore.open(store.path, read_only=True)
        assert handle.load_hypergraph() == community_hypergraph
        index = handle.sharded_index()
        assert index.num_pairs == store.manifest.num_pairs
        oracle = OverlapIndex.build(community_hypergraph)
        assert index.line_graph(2) == oracle.line_graph(2)

    def test_replays_wal_without_truncating_torn_tail(self, store):
        """A live writer may still be appending the torn record: a reader
        must replay the valid prefix but never rewrite the file."""
        writer = PersistentQueryEngine(store)
        writer.add_hyperedge([0, 1, 2])
        wal_path = os.path.join(store.path, WAL_NAME)
        with open(wal_path, "ab") as f:
            f.write(b'2\t00000000\t{"op": "add"')  # in-flight partial append
        size_before = os.path.getsize(wal_path)
        handle = IndexStore.open(store.path, read_only=True)
        assert handle.recovered_torn_tail
        assert handle.num_wal_records() == 1  # valid prefix served
        assert os.path.getsize(wal_path) == size_before  # untouched
        # A writable open afterwards still truncates as usual.
        writable = IndexStore.open(store.path)
        assert writable.recovered_torn_tail
        assert os.path.getsize(wal_path) < size_before

    def test_stale_generation_wal_is_ignored_not_deleted(self, store):
        """A log stamped with another generation is skipped read-only (the
        snapshot alone is served) but left on disk for the writer."""
        writer = PersistentQueryEngine(store)
        writer.add_hyperedge([0, 1, 2])
        wal_path = os.path.join(store.path, WAL_NAME)
        size_before = os.path.getsize(wal_path)
        # Simulate the read race: manifest generation moved ahead.
        store.manifest.generation += 1
        try:
            handle = IndexStore(store.path, manifest=store.manifest, read_only=True)
            assert handle.discarded_stale_wal
            assert handle.num_wal_records() == 0
            assert os.path.getsize(wal_path) == size_before
        finally:
            store.manifest.generation -= 1

    def test_read_only_engine_rejects_updates_before_mutating(self, store):
        engine = PersistentQueryEngine.open(store.path, read_only=True)
        n_edges = engine.hypergraph.num_edges
        graph_before = engine.line_graph(2)
        with pytest.raises(ReadOnlyStoreError):
            engine.add_hyperedge([0, 1, 2])
        with pytest.raises(ReadOnlyStoreError):
            engine.remove_hyperedge(0)
        with pytest.raises(ReadOnlyStoreError):
            engine.compact()
        # The in-memory view was never half-updated.
        assert engine.hypergraph.num_edges == n_edges
        assert engine.line_graph(2) == graph_before

    def test_state_token_tracks_appends_and_compactions(self, store):
        token0 = IndexStore.state_token(store.path)
        writer = PersistentQueryEngine(store)
        writer.add_hyperedge([0, 1, 2])
        token1 = IndexStore.state_token(store.path)
        assert token1 != token0
        assert token1[0] == token0[0]  # same generation, longer WAL
        writer.compact()
        token2 = IndexStore.state_token(store.path)
        assert token2[0] == token0[0] + 1  # compaction bumped the generation
        assert store.current_state_token() == token2

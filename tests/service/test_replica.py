"""ReadReplica: read-only serving, WAL catch-up, compaction hot reload."""

import numpy as np
import pytest

from repro.engine.engine import QueryEngine
from repro.service.replica import ReadReplica
from repro.store.format import ReadOnlyStoreError
from repro.store.persistent import PersistentQueryEngine
from repro.store.store import IndexStore
from repro.utils.rng import make_rng


@pytest.fixture
def writer(store_path):
    return PersistentQueryEngine.open(store_path)


def random_members(h, rng, size=5):
    return np.unique(rng.choice(h.num_vertices, size=size, replace=False)).tolist()


def assert_replica_matches_oracle(replica, writer, s_values=(1, 2, 3)):
    oracle = QueryEngine(writer.hypergraph)
    for s in s_values:
        assert replica.line_graph(s) == oracle.line_graph(s), s
        assert replica.metric_by_hyperedge(s, "pagerank") == pytest.approx(
            oracle.metric_by_hyperedge(s, "pagerank")
        ), s


class TestServing:
    def test_serves_the_snapshot_state(self, store_path, writer):
        replica = ReadReplica(store_path)
        assert replica.generation == 0
        assert_replica_matches_oracle(replica, writer)

    def test_rejects_updates(self, store_path):
        replica = ReadReplica(store_path)
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            replica.engine.add_hyperedge([0, 1, 2])
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            replica.engine.remove_hyperedge(0)
        with pytest.raises(ReadOnlyStoreError, match="read-only"):
            replica.engine.compact()
        # Rejected before any in-memory mutation: still serving correctly.
        assert replica.num_components(1) >= 1

    def test_sweep_and_components(self, store_path, writer):
        replica = ReadReplica(store_path)
        oracle = QueryEngine(writer.hypergraph)
        result = replica.sweep(range(1, 4), metrics=("connected_components",))
        expected = oracle.sweep(range(1, 4), metrics=("connected_components",))
        assert result.edge_counts == expected.edge_counts
        labels = oracle.metric(1, "connected_components")
        assert replica.num_components(1) == int(labels.max()) + 1 if labels.size else 0


class TestCatchUp:
    def test_sees_wal_appends_from_the_writer(self, store_path, writer):
        replica = ReadReplica(store_path)
        rng = make_rng(7)
        for _ in range(4):
            writer.add_hyperedge(random_members(writer.hypergraph, rng))
        writer.remove_hyperedge(2)
        # Next query polls the change token and reloads.
        assert_replica_matches_oracle(replica, writer)
        assert replica.reloads == 1
        assert replica.fingerprint() == writer.fingerprint()

    def test_poll_interval_rate_limits_checks(self, store_path, writer):
        replica = ReadReplica(store_path, poll_interval=3600.0)
        before = replica.metric_by_hyperedge(2, "pagerank")
        writer.add_hyperedge([0, 1, 2, 3])
        # Within the poll interval: the stale view keeps serving.
        assert replica.metric_by_hyperedge(2, "pagerank") == before
        assert replica.reloads == 0
        replica.refresh()  # explicit refresh overrides the rate limit
        assert_replica_matches_oracle(replica, writer)

    def test_hot_reload_after_compaction(self, store_path, writer):
        replica = ReadReplica(store_path)
        rng = make_rng(8)
        for _ in range(5):
            writer.add_hyperedge(random_members(writer.hypergraph, rng))
        assert_replica_matches_oracle(replica, writer)  # replays the WAL
        writer.compact()
        assert_replica_matches_oracle(replica, writer)
        assert replica.generation == 1
        assert replica.reloads == 2

    def test_in_flight_view_survives_compaction_sweep(self, store_path, writer):
        """Queries on an engine captured before the sweep still answer
        (POSIX keeps unlinked mmap'd shards readable); new queries reload."""
        replica = ReadReplica(store_path)
        old_engine = replica.engine
        old_graph = old_engine.line_graph(2)  # touch shards: mmaps now open
        writer.add_hyperedge([0, 1, 2, 3, 4])
        writer.compact()  # sweeps generation-0 shard files
        assert old_engine.line_graph(2) == old_graph  # old view intact
        assert_replica_matches_oracle(replica, writer)
        assert replica.generation == 1

    def test_forced_refresh_retry_after_swept_shards(self, store_path, writer):
        """A replica whose engine never touched the old shards gets a store
        error on first touch after the sweep — and transparently retries."""
        replica = ReadReplica(store_path, poll_interval=3600.0)  # no polling
        writer.add_hyperedge([0, 1, 2, 3, 4])
        writer.compact()
        # Old generation files are gone; the stale engine's first shard
        # touch fails internally; the replica must recover by reloading.
        assert_replica_matches_oracle(replica, writer)
        assert replica.reloads >= 1


class TestEngineLeaks:
    """Regression: a refresh that opens an engine and then does not install
    it (lost the race, equal token, replica closed) used to drop the fresh
    engine without closing — leaking mmap'd shard handles every time."""

    @pytest.fixture
    def close_counter(self, monkeypatch):
        closed = []
        original = PersistentQueryEngine.close

        def counting_close(engine):
            closed.append(engine)
            return original(engine)

        monkeypatch.setattr(PersistentQueryEngine, "close", counting_close)
        return closed

    def test_superseded_refresh_closes_the_loser(
        self, store_path, writer, close_counter, monkeypatch
    ):
        replica = ReadReplica(store_path)
        served = replica.engine
        # Make the cheap outer staleness check lie so refresh() opens a
        # fresh engine even though the store did not change; the in-lock
        # install checks must then discard — and close — the loser.
        monkeypatch.setattr(
            IndexStore, "state_token", staticmethod(lambda path: (-1, -1))
        )
        assert replica.refresh() is False
        assert len(close_counter) == 1
        assert close_counter[0] is not served  # the serving engine survives
        monkeypatch.undo()
        assert replica.engine is served
        assert replica.metric_by_hyperedge(2, "pagerank")  # still serving

    def test_refresh_losing_to_close_shuts_the_fresh_engine(
        self, store_path, writer, close_counter
    ):
        replica = ReadReplica(store_path)
        served = replica.engine
        real_open = replica._open

        def open_then_close():
            engine, token = real_open()
            replica.close()  # close() lands while the refresh is mid-open
            return engine, token

        replica._open = open_then_close
        writer.add_hyperedge([0, 1, 2])
        assert replica.refresh() is False
        # close() released the serving engine; the refresh then closed
        # exactly the freshly opened (never-installed) one.
        assert len(close_counter) == 2
        assert close_counter[0] is served and close_counter[1] is not served

    def test_installed_refresh_closes_nothing(self, store_path, writer, close_counter):
        replica = ReadReplica(store_path)
        writer.add_hyperedge([0, 1, 2, 3])
        assert replica.refresh() is True
        # Neither the new engine nor the replaced one (in-flight queries
        # may still hold it) is closed by a successful install.
        assert close_counter == []

    def test_sharded_index_close_releases_and_reopens(self, store_path):
        engine = PersistentQueryEngine.open(store_path, read_only=True)
        graph = engine.line_graph(2)
        assert engine.index.num_resident_shards > 0
        engine.close()
        assert engine.index.num_resident_shards == 0
        # close() releases handles; it is not a terminal state.
        assert engine.line_graph(2) == graph


class TestLifecycleAndConcurrency:
    def test_closed_replica_refuses_cleanly(self, store_path):
        from repro.store.format import StoreError

        replica = ReadReplica(store_path)
        replica.close()
        with pytest.raises(StoreError, match="closed"):
            replica.metric(2, "pagerank")
        assert replica.refresh() is False

    def test_close_releases_the_shard_mmaps(self, store_path):
        replica = ReadReplica(store_path)
        replica.line_graph(1)  # fault every shard in
        engine = replica.engine
        assert engine.index.num_resident_shards > 0
        replica.close()
        assert engine.index.num_resident_shards == 0

    def test_recovers_after_writer_truncates_the_wal(self, store_path, writer):
        """A restarted writer legitimately *shrinks* the log (torn-tail
        truncation); the replica must not wedge on its larger byte count."""
        import os

        from repro.store.format import WAL_NAME

        replica = ReadReplica(store_path)
        writer.add_hyperedge([0, 1, 2])
        wal_path = os.path.join(store_path, WAL_NAME)
        with open(wal_path, "ab") as handle:
            handle.write(b'9\t00000000\t{"op": "add"')  # torn tail
        replica.refresh()  # replica token now includes the torn bytes
        IndexStore.open(store_path)  # writer restart: truncates the tail
        writer2 = PersistentQueryEngine.open(store_path)
        writer2.add_hyperedge([2, 3, 4])
        assert_replica_matches_oracle(replica, writer2)

    def test_concurrent_queries_share_one_sharded_index(self, store_path):
        """Regression: the shard-residency LRU is raced by query worker
        threads (move_to_end vs evict used to KeyError)."""
        import threading

        replica = ReadReplica(store_path, max_resident_shards=1)
        oracle = {s: replica.line_graph(s) for s in (1, 2, 3)}
        errors = []

        def hammer():
            try:
                for i in range(50):
                    s = 1 + i % 3
                    assert replica.line_graph(s) == oracle[s]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors

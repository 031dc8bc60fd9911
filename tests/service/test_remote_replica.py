"""RemoteReadReplica: a read replica fed purely over the socket protocol.

These tests run the writer's socket server in-process and point a
:class:`RemoteReadReplica` at it with a *separate* local directory — no
shared store path — exercising bootstrap, WAL-delta convergence,
compaction hot-swap, peer-outage degradation and mirror locking.
"""

import numpy as np
import pytest

from repro.engine.engine import QueryEngine
from repro.service import (
    QueryService,
    ReadReplica,
    RemoteReadReplica,
    ServiceClient,
    SocketServer,
    StoreLockHeldError,
)
from repro.service.lock import StoreLock
from repro.store.format import StoreError
from repro.utils.rng import make_rng


@pytest.fixture
def server(writer):
    with SocketServer(writer, port=0) as srv:
        yield srv


@pytest.fixture
def mirror_path(tmp_path):
    return str(tmp_path / "mirror")


def assert_matches_oracle(replica, writer, s_values=(1, 2, 3)):
    oracle = QueryEngine(writer.engine.hypergraph)
    for s in s_values:
        assert replica.line_graph(s) == oracle.line_graph(s), s
        assert replica.metric_by_hyperedge(s, "pagerank") == pytest.approx(
            oracle.metric_by_hyperedge(s, "pagerank")
        ), s


class TestRemoteReadReplica:
    def test_bootstraps_and_serves_the_snapshot(self, server, writer, mirror_path):
        with RemoteReadReplica(server.host, server.port, mirror_path) as replica:
            assert replica.generation == 0
            assert_matches_oracle(replica, writer)
            assert replica.fingerprint() == writer.engine.fingerprint()

    def test_converges_after_writer_updates(self, server, writer, mirror_path):
        with RemoteReadReplica(server.host, server.port, mirror_path) as replica:
            assert_matches_oracle(replica, writer)
            rng = make_rng(5)
            h = writer.engine.hypergraph
            for _ in range(4):
                members = sorted(set(int(v) for v in rng.choice(h.num_vertices, 5)))
                writer.submit_add(members)
            writer.submit_remove(2)
            writer.flush()
            # The next query polls the peer token, pulls the WAL delta and
            # hot-swaps — no shared filesystem anywhere.
            assert_matches_oracle(replica, writer)
            assert replica.fingerprint() == writer.engine.fingerprint()
            assert replica.mirror.wal_seq == 5

    def test_hot_swaps_across_a_compaction(self, server, writer, mirror_path):
        with RemoteReadReplica(server.host, server.port, mirror_path) as replica:
            writer.submit_add([0, 1, 2, 3]).result()
            assert_matches_oracle(replica, writer)
            writer.compact()
            assert_matches_oracle(replica, writer)
            assert replica.generation == 1
            assert replica.mirror.generation == 1

    def test_keeps_serving_through_a_peer_outage(self, writer, mirror_path):
        import time

        server = SocketServer(writer, port=0).start()
        client = ServiceClient(
            server.host, server.port, connect_retries=2, retry_interval=0.05
        ).connect()
        replica = RemoteReadReplica(
            store_path=mirror_path, client=client, poll_interval=0.0
        )
        try:
            before = replica.metric_by_hyperedge(2, "pagerank")
            server.close()  # the peer goes away entirely
            # Queries degrade to the last synced local state, not errors —
            # and after the first failed poll, the backoff keeps further
            # queries from paying the connect-retry budget again.
            assert replica.metric_by_hyperedge(2, "pagerank") == pytest.approx(before)
            start = time.monotonic()
            assert replica.metric_by_hyperedge(2, "pagerank") == pytest.approx(before)
            assert time.monotonic() - start < 0.5  # served locally, no poll
        finally:
            replica.close()
            client.close()

    def test_sync_reports_and_explicit_force(self, server, writer, mirror_path):
        with RemoteReadReplica(server.host, server.port, mirror_path) as replica:
            assert replica.sync() is None  # token unchanged: no work
            report = replica.sync(force=True)
            assert report is not None and not report.changed
            writer.submit_add([0, 1, 2]).result()
            report = replica.sync()
            assert report is not None and report.wal_records == 1

    def test_mirror_directory_is_writer_locked(self, server, writer, mirror_path):
        with RemoteReadReplica(server.host, server.port, mirror_path):
            with pytest.raises(StoreLockHeldError):
                StoreLock(mirror_path).acquire(blocking=False)
            # A read-only service over the mirror is fine (no lock taken).
            with QueryService(mirror_path, read_only=True) as local_reader:
                assert local_reader.num_components(1) >= 1
        # The lock is released on close.
        StoreLock(mirror_path).acquire(blocking=False).release()

    def test_lock_contention_does_not_leak_the_owned_client(
        self, server, writer, mirror_path
    ):
        """A constructor that fails at lock acquisition must close the
        connection it opened, not strand it in the server's slot table."""
        import time

        with RemoteReadReplica(server.host, server.port, mirror_path):
            with pytest.raises(StoreLockHeldError):
                RemoteReadReplica(server.host, server.port, mirror_path)
            deadline = time.monotonic() + 10
            while server.stats.active_connections > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.stats.active_connections <= 1

    def test_closed_replica_refuses_cleanly(self, server, writer, mirror_path):
        replica = RemoteReadReplica(server.host, server.port, mirror_path)
        replica.close()
        with pytest.raises(StoreError, match="closed"):
            replica.metric(2, "pagerank")
        assert replica.sync() is None
        replica.close()  # idempotent

    def test_replica_can_feed_from_another_replica_server(
        self, server, writer, mirror_path, tmp_path
    ):
        """Chained replication: mirror A serves a socket, mirror B feeds
        from it — fan-out without touching the writer."""
        with RemoteReadReplica(server.host, server.port, mirror_path):
            with QueryService(mirror_path, read_only=True) as mid_service:
                with SocketServer(mid_service, port=0) as mid_server:
                    with RemoteReadReplica(
                        mid_server.host, mid_server.port, str(tmp_path / "second")
                    ) as second:
                        assert_matches_oracle(second, writer)

    def test_shares_an_existing_client(self, server, writer, mirror_path):
        client = ServiceClient(server.host, server.port).connect()
        try:
            with RemoteReadReplica(
                store_path=mirror_path, client=client, poll_interval=0.0
            ) as replica:
                assert_matches_oracle(replica, writer)
            assert client.connected  # a borrowed client is not closed
            assert client.components(1) >= 0
        finally:
            client.close()


#: The query surface both replica kinds serve — one implementation
#: (``ReadReplica``'s) since the remote-fed replica became a subclass.
QUERY_SURFACE = [
    ("fingerprint", ()),
    ("max_s", ()),
    ("line_graph", (2,)),
    ("metric", (2, "pagerank")),
    ("metric_columns", (1, "connected_components")),
    ("metric_by_hyperedge", (1, "connected_components")),
    ("sweep", ((1, 2, 3), ("connected_components",))),
    ("num_components", (1,)),
]


def _comparable(value):
    """Query results as plain values ``==`` can compare."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):  # metric_columns
        return tuple(_comparable(v) for v in value)
    if isinstance(value, dict):
        return {key: _comparable(v) for key, v in value.items()}
    if hasattr(value, "edge_counts"):  # SweepResult
        return (value.edge_counts, value.active_counts, _comparable(value.metrics))
    return value


class TestSharedQuerySurface:
    """A shared-filesystem replica and a remote-fed one follow the same
    writer through an update and a compaction and must answer every query
    method identically — and equal to the writer's own engine."""

    @pytest.mark.parametrize("method, args", QUERY_SURFACE)
    def test_local_and_remote_replicas_answer_identically(
        self, method, args, server, writer, store_path, mirror_path
    ):
        assert issubclass(RemoteReadReplica, ReadReplica)
        with ReadReplica(store_path) as local, RemoteReadReplica(
            server.host, server.port, mirror_path
        ) as remote:
            for step in ("snapshot", "updated", "compacted"):
                if step == "updated":
                    writer.submit_add([0, 1, 2, 3]).result()
                    writer.submit_remove(2).result()
                elif step == "compacted":
                    writer.compact()
                source = writer if method == "num_components" else writer.engine
                expected = _comparable(getattr(source, method)(*args))
                assert _comparable(getattr(local, method)(*args)) == expected, step
                assert _comparable(getattr(remote, method)(*args)) == expected, step
            assert local.generation == remote.generation == 1

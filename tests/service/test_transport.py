"""The socket transport: framing, handshake, server/client round trips.

Every served value is cross-checked against the in-process
:class:`QueryService` the server fronts, so the wire adds encoding and
concurrency — never different answers.
"""

import socket
import threading

import pytest

from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.service import QueryService, ServiceClient, SocketServer
from repro.service.transport import (
    PROTOCOL_VERSION,
    FrameError,
    FrameTooLargeError,
    RemoteServiceError,
    ServiceBusyError,
    TransportError,
    TruncatedFrameError,
)
from repro.service.transport.framing import (
    LENGTH_PREFIX,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.smetrics.centrality import s_pagerank


@pytest.fixture
def server(writer):
    with SocketServer(writer, port=0, max_connections=8) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(*server.address, connect_retries=5) as c:
        yield c


class TestFraming:
    def test_round_trip_through_a_socket_pair(self):
        a, b = socket.socketpair()
        payload = {"op": "metric", "s": 3, "values": {"0": 1.5}}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close()
        assert recv_frame(b) is None  # clean EOF between frames
        b.close()

    def test_length_prefix_layout(self):
        frame = encode_frame({"a": 1}, max_frame_bytes=1024)
        (length,) = LENGTH_PREFIX.unpack(frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == {"a": 1}

    def test_oversized_frame_refused_before_encoding(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 100}, max_frame_bytes=50)

    def test_oversized_frame_refused_before_reading_payload(self):
        a, b = socket.socketpair()
        a.sendall(LENGTH_PREFIX.pack(10_000_000))
        with pytest.raises(FrameTooLargeError):
            recv_frame(b, max_frame_bytes=1024)
        a.close()
        b.close()

    def test_truncated_stream_raises_mid_frame(self):
        a, b = socket.socketpair()
        frame = encode_frame({"op": "stats"}, max_frame_bytes=1024)
        a.sendall(frame[: len(frame) - 3])
        a.close()
        with pytest.raises(TruncatedFrameError):
            recv_frame(b)
        b.close()

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        a.sendall(LENGTH_PREFIX.pack(2) + b"[]")
        with pytest.raises(FrameError):
            recv_frame(b)
        a.close()
        b.close()


class TestHandshake:
    def test_hello_reports_mode_protocol_and_generation(self, server, client):
        info = client.server_info
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["read_only"] is False
        assert info["generation"] == 0

    def test_raw_socket_handshake(self, server):
        sock = socket.create_connection(server.address)
        send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        response = recv_frame(sock)
        assert response["ok"] and response["op"] == "hello"
        sock.close()


class TestQueriesMatchTheLocalService:
    def test_metric_values_identical(self, writer, client):
        expected = writer.metric_by_hyperedge(2, "pagerank")
        assert client.metric(2, "pagerank") == pytest.approx(expected)

    def test_components_and_sweep(self, writer, client):
        assert client.components(2) == writer.num_components(2)
        remote = client.sweep(s_min=1, s_max=4)
        local = writer.sweep(range(1, 5))
        assert remote["edge_counts"] == local.edge_counts
        assert remote["active_counts"] == local.active_counts

    def test_batch_preserves_order_and_fans_out(self, writer, client):
        requests = [{"op": "components", "s": s} for s in (3, 1, 2, 1, 3)]
        responses = client.batch(requests)
        assert [r["s"] for r in responses] == [3, 1, 2, 1, 3]
        assert [r["count"] for r in responses] == [
            writer.num_components(s) for s in (3, 1, 2, 1, 3)
        ]

    def test_pipelined_requests_answered_in_order(self, server):
        """Send several frames before reading any response."""
        sock = socket.create_connection(server.address)
        send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_frame(sock)["ok"]
        for s in (1, 2, 3):
            send_frame(sock, {"op": "components", "s": s})
        answers = [recv_frame(sock) for _ in range(3)]
        assert [a["s"] for a in answers] == [1, 2, 3]
        assert all(a["ok"] for a in answers)
        sock.close()

    def test_stats_round_trip(self, client):
        stats = client.stats()
        assert stats["read_only"] is False
        assert "admission" in stats


class TestDurableUpdatesOverTheWire:
    def test_add_ack_carries_edge_id_and_is_applied(self, writer, client):
        num_edges = writer.engine.hypergraph.num_edges
        edge_id = client.add([0, 1, 2, 3])
        assert edge_id == num_edges
        assert writer.engine.hypergraph.num_edges == num_edges + 1
        # The WAL holds the record: the ack implied durability.
        assert writer.engine.store.num_wal_records() >= 1

    def test_remove_ack(self, writer, client):
        edge_id = client.add([0, 1, 2])
        assert client.remove(edge_id) is True
        assert writer.engine.hypergraph.edge_size(edge_id) == 0

    def test_flush_and_compact(self, writer, client):
        client.add([1, 2, 3], wait=False)
        client.flush()
        assert client.compact() == 1
        assert writer.generation == 1

    def test_unknown_metric_is_bad_request(self, client):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.metric(2, "nonsense")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op_is_bad_request(self, client):
        response = client.call({"op": "frobnicate"})
        assert response["ok"] is False
        assert response["code"] == "bad_request"


class TestReadOnlyServer:
    def test_replica_server_serves_queries_but_rejects_writes(self, store_path, writer):
        replica = QueryService(store_path, read_only=True)
        with SocketServer(replica, port=0) as server:
            with ServiceClient(*server.address) as client:
                assert client.server_info["read_only"] is True
                assert client.components(2) == writer.num_components(2)
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.add([0, 1, 2])
                assert excinfo.value.code == "read_only"
        replica.close()


class TestBackpressure:
    def test_connections_past_the_limit_get_busy(self, writer):
        with SocketServer(writer, port=0, max_connections=1) as server:
            with ServiceClient(*server.address) as first:
                assert first.components(1) >= 0
                blocked = ServiceClient(
                    *server.address, connect_retries=2, retry_interval=0.01
                )
                with pytest.raises(TransportError) as excinfo:
                    blocked.connect()
                assert isinstance(excinfo.value.__cause__, ServiceBusyError)
                assert "connection limit" in str(excinfo.value.__cause__)
                assert server.stats.connections_rejected >= 1
            # Slot freed: the same client settings now connect fine.
            with ServiceClient(*server.address, connect_retries=20) as second:
                assert second.components(1) >= 0

    def test_busy_is_retried_until_a_slot_frees(self, writer):
        with SocketServer(writer, port=0, max_connections=1) as server:
            first = ServiceClient(*server.address).connect()
            release = threading.Timer(0.3, first.close)
            release.start()
            try:
                # Out-waits the busy phase thanks to connect retries.
                with ServiceClient(
                    *server.address, connect_retries=100, retry_interval=0.05
                ) as second:
                    assert second.components(1) >= 0
            finally:
                release.cancel()


class TestGracefulShutdown:
    def test_close_drains_and_clients_see_eof(self, writer):
        server = SocketServer(writer, port=0).start()
        client = ServiceClient(*server.address, reconnect=False).connect()
        assert client.components(1) >= 0
        server.close()
        with pytest.raises(TransportError):
            client.call({"op": "components", "s": 1})
        client.close()
        assert server.stats.active_connections == 0

    def test_close_is_idempotent(self, writer):
        server = SocketServer(writer, port=0).start()
        server.close()
        server.close()

    def test_service_survives_its_server(self, writer):
        server = SocketServer(writer, port=0).start()
        server.close()
        assert writer.num_components(1) >= 0  # service not closed by server


class TestSmetricsOverTheWire:
    """``ServiceClient.metric`` is the remote s-measure: the same dict."""

    def test_client_metric_equals_the_smetrics_function(self, community_hypergraph, client):
        assert client.metric(2, "pagerank") == pytest.approx(
            s_pagerank(community_hypergraph, 2)
        )

    def test_client_metric_follows_a_remote_add(self, community_hypergraph, writer, client):
        model = [members.tolist() for _, members in community_hypergraph.iter_edges()]
        before = client.fingerprint()
        assert client.add([0, 1, 2, 3, 4]) == len(model)
        model.append([0, 1, 2, 3, 4])
        h = hypergraph_from_edge_lists(model, num_vertices=community_hypergraph.num_vertices)
        assert client.fingerprint() != before
        assert client.fingerprint() == writer.engine.fingerprint() == h.fingerprint()
        assert client.metric(2, "pagerank") == pytest.approx(s_pagerank(h, 2))

"""Transport edge cases: malformed peers, restarts, replica churn.

The server must shrug off adversarial or unlucky byte streams (truncated
frames, oversized frames, wrong protocol versions, garbage JSON) without
taking down other connections; the client must survive a server restart;
and a read-replica server must keep answering correctly while a writer
compacts the store underneath it.
"""

import json
import socket
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.engine.engine import MAX_SWEEP_THRESHOLDS
from repro.service import (
    CompactionPolicy,
    QueryService,
    ServiceClient,
    SocketServer,
)
from repro.service.transport import (
    FrameError,
    FrameTooLargeError,
    PROTOCOL_VERSION_BINARY,
    ProtocolVersionError,
    TransportError,
)
from repro.service.transport.framing import (
    BINARY_FLAG,
    DEFAULT_MAX_FRAME_BYTES,
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    decode_binary_frame,
    encode_binary_frame,
    recv_frame,
    send_frame,
)
from repro.utils.rng import make_rng


@pytest.fixture
def server(writer):
    with SocketServer(writer, port=0, max_frame_bytes=1 << 20) as srv:
        yield srv


def handshake(address):
    sock = socket.create_connection(address)
    send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
    assert recv_frame(sock)["ok"]
    return sock


class TestMalformedPeers:
    def test_truncated_frame_drops_only_that_connection(self, server):
        sock = handshake(server.address)
        sock.sendall(LENGTH_PREFIX.pack(100) + b'{"op": "st')  # 90 bytes short
        sock.close()
        # The server survives: a fresh client is served normally.
        with ServiceClient(*server.address) as client:
            assert client.components(1) >= 0
        assert server.stats.active_connections <= 1

    def test_oversized_frame_answered_then_closed(self, server):
        sock = handshake(server.address)
        sock.sendall(LENGTH_PREFIX.pack(server.max_frame_bytes + 1))
        response = recv_frame(sock)
        assert response["ok"] is False
        assert response["code"] == "bad_frame"
        assert recv_frame(sock) is None  # server closed the connection
        sock.close()
        assert server.stats.frames_rejected >= 1

    def test_garbage_json_frame_answered_then_closed(self, server):
        sock = handshake(server.address)
        body = b"\xff\xfe not json"
        sock.sendall(LENGTH_PREFIX.pack(len(body)) + body)
        response = recv_frame(sock)
        assert response["ok"] is False
        assert response["code"] == "bad_frame"
        assert recv_frame(sock) is None
        sock.close()

    def test_protocol_version_mismatch_rejected(self, server):
        sock = socket.create_connection(server.address)
        send_frame(sock, {"op": "hello", "protocol": PROTOCOL_VERSION + 7})
        response = recv_frame(sock)
        assert response["ok"] is False
        assert response["code"] == "protocol_mismatch"
        assert response["protocol"] == PROTOCOL_VERSION  # names both versions
        assert recv_frame(sock) is None
        sock.close()

    def test_protocol_mismatch_raises_without_retries(self, server, monkeypatch):
        client = ServiceClient(*server.address, connect_retries=50)
        monkeypatch.setattr(
            "repro.service.transport.client.hello_request",
            lambda: {"op": "hello", "protocol": 99},
        )
        with pytest.raises(ProtocolVersionError):
            client.connect()  # immediate: retrying cannot fix a version skew

    def test_first_frame_not_hello_rejected(self, server):
        sock = socket.create_connection(server.address)
        send_frame(sock, {"op": "components", "s": 1})
        response = recv_frame(sock)
        assert response["ok"] is False
        assert response["code"] == "protocol_mismatch"
        sock.close()

    def test_batch_cannot_smuggle_transport_ops(self, server):
        with ServiceClient(*server.address) as client:
            response = client.call(
                {"op": "batch", "requests": [{"op": "goodbye"}]}
            )
            assert response["ok"] is False
            assert response["code"] == "bad_request"

    def test_oversized_response_answered_with_error_frame(self, writer):
        """A response over the frame cap becomes a small error frame; the
        connection (and pairing) survives instead of dying as a bare EOF."""
        server = SocketServer(writer, port=0, max_frame_bytes=256).start()
        try:
            with ServiceClient(
                server.host, server.port, max_frame_bytes=256
            ) as client:
                response = client.call(
                    {"op": "metric", "s": 1, "metric": "pagerank"}
                )
                assert response["ok"] is False
                assert response["code"] == "bad_frame"
                assert "frame cap" in response["error"]
                # Same connection keeps serving small responses.
                small = client.call({"op": "components", "s": 1})
                assert small["ok"] is True
        finally:
            server.close()


def binary_body(section_meta, data):
    """A binary frame body (after the length prefix) of one bytes section."""
    header = json.dumps(
        {"payload": {"ok": True, "data": {"__sec__": 0}}, "sections": [section_meta]}
    ).encode("utf-8")
    return LENGTH_PREFIX.pack(len(header)) + header + data


@pytest.fixture(scope="module")
def zlib_bomb():
    """~200 KB of deflated zeros (200 MiB inflated) in a section that
    declares ``"codec": "zlib"`` and a 16-byte raw length: a frame well
    under a 1 MiB cap that a decoder inflating before it checks would
    expand a thousandfold."""
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    packed = b"".join([deflater.compress(zeros) for _ in range(200)] + [deflater.flush()])
    meta = {"dtype": "bytes", "len": len(packed), "ulen": 16, "codec": "zlib"}
    return binary_body(meta, packed)


class TestHostileSections:
    """Sections travel raw: a decoder never inflates what a peer sends, so
    its allocation stays bounded by the frame it already read."""

    CAP = 1 << 20

    def test_codec_section_raises_without_inflating(self, zlib_bomb):
        assert 150_000 < len(zlib_bomb) < self.CAP
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="codec 'zlib'"):
                decode_binary_frame(zlib_bomb, self.CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(zlib_bomb)

    def test_server_answers_the_bomb_with_bad_frame(self, server, zlib_bomb):
        sock = handshake(server.address)
        sock.sendall(LENGTH_PREFIX.pack(BINARY_FLAG | len(zlib_bomb)) + zlib_bomb)
        response = recv_frame(sock)
        assert response["ok"] is False
        assert response["code"] == "bad_frame"
        assert "codec" in response["error"]
        assert recv_frame(sock) is None
        sock.close()
        with ServiceClient(*server.address) as client:
            assert client.components(1) >= 0

    @pytest.mark.parametrize("ulen", [16, 64])
    def test_raw_length_must_match_section_length(self, ulen):
        body = binary_body({"dtype": "bytes", "len": 32, "ulen": ulen}, bytes(32))
        with pytest.raises(FrameError, match=f"carries 32 bytes, header declared {ulen}"):
            decode_binary_frame(body, self.CAP)

    def test_a_body_over_the_cap_is_refused_before_parsing(self):
        body = binary_body({"dtype": "bytes", "len": 32}, bytes(32))
        with pytest.raises(FrameTooLargeError):
            decode_binary_frame(body, len(body) - 1)

    def test_matching_raw_length_still_decodes(self):
        """A peer that also sends ``ulen`` (equal to ``len``) is served."""
        body = binary_body({"dtype": "bytes", "len": 32, "ulen": 32}, bytes(range(32)))
        assert decode_binary_frame(body, self.CAP)["data"] == bytes(range(32))


class TestManySections:
    def test_a_batch_of_600_columnar_metrics_is_answered(self, writer):
        """Every columnar sub-response adds two sections to the one batch
        frame, so 600 of them make a frame of 1,200 sections, more than a
        single ``sendmsg`` may carry (1,024 iovecs on Linux)."""
        request = {"op": "metric", "s": 1, "metric": "pagerank", "columns": True}
        with SocketServer(writer, port=0) as server:
            with ServiceClient(*server.address) as client:
                assert client.protocol == PROTOCOL_VERSION_BINARY
                expected = client.call(dict(request))
                assert expected["ok"] is True
                response = client.call({"op": "batch", "requests": [request] * 600})
                assert response["ok"] is True
                assert len(response["results"]) == 600
                for result in response["results"]:
                    assert np.array_equal(result["edge_ids"], expected["edge_ids"])
                    assert np.array_equal(result["values"], expected["values"])
                assert client.components(1) >= 0  # same connection


def scripted_peer(reply, protocol):
    """A one-connection server that negotiates ``protocol`` and answers
    every query with ``reply`` (a binary frame on v2, JSON on v1).

    Returns ``(address, thread)``; the thread ends when the client says
    goodbye or hangs up.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener, listener.accept()[0] as conn:
            recv_frame(conn)
            hello = {"ok": True, "op": "hello", "protocol": PROTOCOL_VERSION}
            send_frame(conn, {**hello, "negotiated": protocol, "compression": None})
            while (request := recv_frame(conn)) is not None:
                if request.get("op") == "goodbye":
                    send_frame(conn, {"ok": True, "op": "goodbye"})
                    return
                if protocol == PROTOCOL_VERSION_BINARY:
                    conn.sendall(encode_binary_frame(reply, DEFAULT_MAX_FRAME_BYTES))
                else:
                    send_frame(conn, reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def served_metric(reply, protocol=PROTOCOL_VERSION_BINARY):
    """``ServiceClient.metric`` against a peer that answers with ``reply``."""
    address, peer = scripted_peer(reply, protocol)
    try:
        with ServiceClient(*address, connect_retries=1) as client:
            assert client.protocol == protocol
            return client.metric(1)
    finally:
        peer.join(timeout=10)
        assert not peer.is_alive()


def columns(edge_ids, values):
    return {"ok": True, "columns": True, "edge_ids": edge_ids, "values": values}


class TestMalformedMetricReplies:
    """A metric reply that breaks PROTOCOL.md §3.1 ends in the typed
    ``FrameError`` instead of a silently truncated or collapsed mapping."""

    IDS = np.array([1, 2, 3], dtype=np.int64)
    VALUES = np.array([0.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "reply, protocol",
        [
            (columns(np.array([1, 3, 2], dtype=np.int64), VALUES), PROTOCOL_VERSION_BINARY),
            (columns(np.array([1, 2, 2], dtype=np.int64), VALUES), PROTOCOL_VERSION_BINARY),
            (columns(IDS, VALUES[:2]), PROTOCOL_VERSION_BINARY),
            (columns(IDS.astype(np.float64), VALUES), PROTOCOL_VERSION_BINARY),
            (columns(IDS.reshape(1, 3), VALUES.reshape(1, 3)), PROTOCOL_VERSION_BINARY),
            ({"ok": True, "values": {"1": 0.0, "01": 1.0}}, PROTOCOL_VERSION),
            ({"ok": True, "values": {"one": 0.0}}, PROTOCOL_VERSION),
            ({"ok": True, "values": [0.0, 1.0]}, PROTOCOL_VERSION),
        ],
        ids=[
            "unsorted",
            "duplicate",
            "unequal-lengths",
            "float-ids",
            "2-d",
            "v1-duplicate",
            "v1-non-integer-id",
            "v1-not-an-object",
        ],
    )
    def test_malformed_reply_raises_frame_error(self, reply, protocol):
        with pytest.raises(FrameError, match="malformed metric"):
            served_metric(reply, protocol)

    def test_well_formed_columns_are_served_as_they_arrived(self):
        values = served_metric(columns(self.IDS, self.VALUES))
        assert values.edge_ids.tobytes() == self.IDS.tobytes()
        assert values == {1: 0.0, 2: 1.0, 3: 2.0}


class TestUnboundedSweep:
    """A sweep over more thresholds than ``MAX_SWEEP_THRESHOLDS`` is a
    legal frame of a few bytes; it must cost a ``bad_request``, not the
    server's memory."""

    OVERSIZED = (
        {"op": "sweep", "s_max": 10**12},
        {"op": "sweep", "s_values": list(range(1, MAX_SWEEP_THRESHOLDS + 2))},
    )

    @pytest.mark.parametrize("request_", OVERSIZED, ids=["s_max", "s_values"])
    def test_refused_in_process_before_any_work(self, writer, request_):
        writer.metric(2, "connected_components")
        entries = writer.engine.stats().cache_entries
        start = time.perf_counter()
        response = writer.execute(request_)
        assert time.perf_counter() - start < 1.0
        assert (response["ok"], response["code"]) == (False, "bad_request")
        assert "more than 4096 distinct" in response["error"]
        assert writer.engine.stats().cache_entries == entries

    @pytest.mark.parametrize("protocol_max", [1, 2])
    @pytest.mark.parametrize("request_", OVERSIZED, ids=["s_max", "s_values"])
    def test_refused_over_a_socket_and_the_connection_lives_on(
        self, writer, server, protocol_max, request_
    ):
        with ServiceClient(*server.address, protocol_max=protocol_max) as client:
            expected = client.components(2)
            entries = writer.engine.stats().cache_entries
            start = time.perf_counter()
            response = client.call(request_)
            assert time.perf_counter() - start < 1.0
            assert (response["ok"], response["code"]) == (False, "bad_request")
            assert client.components(2) == expected  # same connection
            assert writer.engine.stats().cache_entries == entries

    def test_a_sweep_of_exactly_the_cap_is_served(self, writer, server):
        with ServiceClient(*server.address) as client:
            counts = client.sweep(s_max=MAX_SWEEP_THRESHOLDS)["edge_counts"]
        assert sorted(counts) == list(range(1, MAX_SWEEP_THRESHOLDS + 1))
        assert counts[1] == writer.sweep([1]).edge_counts[1] > 0


class TestClientReconnect:
    def test_client_survives_a_server_restart(self, writer):
        first = SocketServer(writer, port=0).start()
        port = first.port
        client = ServiceClient(first.host, port)
        expected = client.metric(2, "pagerank")
        first.close()
        # Same port, fresh server — as after a rolling restart.
        second = SocketServer(writer, host=first.host, port=port).start()
        try:
            assert client.metric(2, "pagerank") == pytest.approx(expected)
            assert second.stats.connections_accepted == 1
        finally:
            client.close()
            second.close()

    def test_reconnect_disabled_raises_instead(self, writer):
        first = SocketServer(writer, port=0).start()
        client = ServiceClient(
            first.host, first.port, reconnect=False, connect_retries=2
        ).connect()
        first.close()
        with pytest.raises(TransportError):
            client.call({"op": "components", "s": 1})
        client.close()

    def test_updates_are_never_silently_resent(self, writer):
        """A connection loss mid-update raises: its fate is unknown."""
        server = SocketServer(writer, port=0).start()
        client = ServiceClient(server.host, server.port).connect()
        client.add([0, 1, 2])  # the connection works
        server.close()
        with pytest.raises(TransportError, match="not idempotent"):
            client.add([3, 4, 5])
        client.close()

    def test_dead_server_reconnect_raises_typed_transport_error(self, writer):
        """Regression (client error contract): every failure mode of the
        mid-call reconnect — including ``connect()`` exhausting its retries
        against an address nothing listens on — must surface as
        :class:`TransportError`, never a raw ``OSError``."""
        server = SocketServer(writer, port=0).start()
        client = ServiceClient(
            server.host, server.port, connect_retries=2, retry_interval=0.05
        ).connect()
        assert client.components(1) >= 0
        server.close()  # the port is dead: reconnects are refused
        with pytest.raises(TransportError) as excinfo:
            client.call({"op": "components", "s": 1})
        assert not isinstance(excinfo.value, OSError)
        # Non-idempotent ops fail typed too (here in connect(): the socket
        # is already known-dead, so the update was never sent at all).
        with pytest.raises(TransportError) as excinfo:
            client.call({"op": "add", "members": [0, 1], "wait": True})
        assert not isinstance(excinfo.value, OSError)
        client.close()

    def test_handshake_error_from_mid_call_reconnect_stays_typed(
        self, writer, monkeypatch
    ):
        """A version skew discovered by the *reconnect* (rolling upgrade
        under our feet) surfaces as ProtocolVersionError — not a raw
        OSError, and not an endless retry loop."""
        server = SocketServer(writer, port=0).start()
        client = ServiceClient(server.host, server.port, connect_retries=50).connect()
        assert client.components(1) >= 0
        server.close()
        second = SocketServer(writer, host=server.host, port=server.port).start()
        monkeypatch.setattr(
            "repro.service.transport.client.hello_request",
            lambda: {"op": "hello", "protocol": 99},
        )
        try:
            with pytest.raises(ProtocolVersionError):
                client.call({"op": "components", "s": 1})
        finally:
            client.close()
            second.close()

    def test_batches_containing_updates_are_not_resent_either(self, writer):
        """A batch is only as idempotent as its contents: one add inside
        makes the whole frame non-retryable (a committed batch must not be
        applied twice on reconnect)."""
        server = SocketServer(writer, port=0).start()
        client = ServiceClient(server.host, server.port).connect()
        queries = [{"op": "components", "s": 1}, {"op": "components", "s": 2}]
        assert all(r["ok"] for r in client.batch(queries))
        server.close()
        with pytest.raises(TransportError, match="not idempotent"):
            client.batch(queries + [{"op": "add", "members": [0, 1], "wait": True}])
        client.close()
        # Pure-query batches stay retryable: a fresh server on the same
        # port serves the reconnect-and-retry path.
        second = SocketServer(writer, host=server.host, port=server.port).start()
        try:
            assert all(r["ok"] for r in client.batch(queries))
        finally:
            client.close()
            second.close()


class TestReplicaUnderCompaction:
    def test_concurrent_clients_hammer_a_replica_through_compactions(
        self, store_path, community_hypergraph
    ):
        """N clients query one replica server while the writer batches
        updates and compacts; every response is served, none is wrong for
        the generation it came from, and all converge to the oracle."""
        policy = CompactionPolicy(max_wal_records=8)
        writer = QueryService(
            store_path, max_batch=8, compaction=policy, compaction_poll_interval=0.02
        )
        replica = QueryService(store_path, read_only=True)
        server = SocketServer(replica, port=0, max_connections=8)
        server.start()
        stop = threading.Event()
        failures = []
        counts = [0] * 4

        def hammer(worker_id):
            try:
                with ServiceClient(server.host, server.port) as client:
                    while not stop.is_set():
                        responses = client.batch(
                            [
                                {"op": "metric", "s": 2, "metric": "pagerank"},
                                {"op": "components", "s": 1},
                            ]
                        )
                        if not all(r["ok"] for r in responses):
                            failures.append(responses)
                            return
                        counts[worker_id] += 1
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        try:
            rng = make_rng(11)
            h = community_hypergraph
            for _ in range(30):
                members = sorted(set(int(v) for v in rng.choice(h.num_vertices, 5)))
                writer.submit_add(members)
            writer.flush()
            writer.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures[:1]
        assert all(c > 0 for c in counts)  # every client got served
        assert writer.generation >= 1  # at least one compaction happened

        # Convergence: the replica now serves exactly the writer's state.
        with ServiceClient(server.host, server.port) as client:
            deadline_values = client.metric(2, "pagerank")
        assert deadline_values == pytest.approx(
            writer.metric_by_hyperedge(2, "pagerank")
        )
        server.close()
        replica.close()
        writer.close()

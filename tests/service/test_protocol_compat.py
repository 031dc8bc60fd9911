"""Cross-version interop: the v1/v2 compatibility matrix of docs/PROTOCOL.md.

The version policy under test: the hello handshake's ``protocol`` field
is frozen at 1 forever, version negotiation rides additive keys, and both
directions of version skew keep working — a v2 client against a v1-pinned
server and a v1-pinned client against a v2 server each settle on the JSON
data plane and serve identical answers to a native v2 pairing.
"""

import base64
import json
import os
import socket
import threading

import pytest

from repro.cli import main as cli_main
from repro.service import (
    RemoteReadReplica,
    ServiceClient,
    SocketServer,
    StoreLock,
)
from repro.service.transport import (
    HyperedgeValues,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_BINARY,
    ProtocolVersionError,
    RemoteServiceError,
)
from repro.service.transport.framing import (
    BINARY_FLAG,
    DEFAULT_MAX_FRAME_BYTES,
    LENGTH_PREFIX,
    decode_binary_frame,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.store.format import WAL_NAME
from repro.store.replication import StoreMirror
from repro.store.store import IndexStore


@pytest.fixture
def v2_server(writer):
    with SocketServer(writer, port=0, max_connections=8) as srv:
        yield srv


@pytest.fixture
def v1_server(writer):
    """A server pinned to the JSON-only v1 data plane (pre-v2 build)."""
    with SocketServer(writer, port=0, max_connections=8, protocol_max=1) as srv:
        yield srv


def _sections_and_payload(sock):
    """Read one binary frame; return its section table and decoded payload."""
    (length,) = LENGTH_PREFIX.unpack(recv_exact(sock, LENGTH_PREFIX.size, True))
    assert length & BINARY_FLAG
    body = recv_exact(sock, length & ~BINARY_FLAG, False)
    (header_len,) = LENGTH_PREFIX.unpack_from(body)
    header = json.loads(body[LENGTH_PREFIX.size : LENGTH_PREFIX.size + header_len])
    return header["sections"], decode_binary_frame(body, DEFAULT_MAX_FRAME_BYTES)


def _oracle(service, s):
    return {
        int(k): float(v)
        for k, v in service.execute(
            {"op": "metric", "s": s, "metric": "connected_components"}
        )["values"].items()
    }


class TestCompatMatrix:
    def test_v2_client_against_v1_server(self, v1_server, writer):
        """A modern client downgrades to v1 and serves identical answers."""
        with ServiceClient(*v1_server.address, connect_retries=5) as client:
            assert client.protocol == PROTOCOL_VERSION
            assert "compression" not in client.server_info
            assert client.metric(2, "connected_components") == _oracle(writer, 2)
            sweep = client.sweep(range(1, 5))
            assert set(sweep) == {"edge_counts", "active_counts"}

    def test_v1_client_against_v2_server(self, v2_server, writer):
        """A pinned (pre-v2) client speaks v1 against a modern server."""
        with ServiceClient(
            *v2_server.address, connect_retries=5, protocol_max=1
        ) as client:
            assert client.protocol == PROTOCOL_VERSION
            assert client.metric(2, "connected_components") == _oracle(writer, 2)

    def test_both_planes_serve_identical_answers(self, v2_server, writer):
        with ServiceClient(*v2_server.address, connect_retries=5) as v2_client:
            with ServiceClient(
                *v2_server.address, connect_retries=5, protocol_max=1
            ) as v1_client:
                assert v2_client.protocol == PROTOCOL_VERSION_BINARY
                assert v1_client.protocol == PROTOCOL_VERSION
                for s in (1, 2, 3):
                    v2_values, v1_values = v2_client.metric(s), v1_client.metric(s)
                    assert v2_values == v1_values
                    for values in (v2_values, v1_values):
                        assert type(values) is HyperedgeValues
                        assert values.edge_ids.flags.writeable is False
                        assert values.metric_values.flags.writeable is False
                assert v2_client.sweep(range(1, 6)) == v1_client.sweep(range(1, 6))

    def test_columns_rejected_on_a_v1_connection(self, v2_server):
        """An explicit columns/raw request on a v1 connection is a typed error."""
        with ServiceClient(
            *v2_server.address, connect_retries=5, protocol_max=1
        ) as client:
            with pytest.raises(RemoteServiceError, match="binary data plane"):
                client.request({"op": "metric", "s": 2, "columns": True})
            # Nested inside a batch too — the sub-request cannot smuggle it.
            with pytest.raises(RemoteServiceError, match="binary data plane"):
                client.request(
                    {
                        "op": "batch",
                        "requests": [{"op": "metric", "s": 2, "columns": True}],
                    }
                )

    def test_offered_codecs_are_ignored(self, v2_server, writer, store_path):
        """A client built when sections could be compressed offers its
        codecs; it still settles on v2, and every section comes back raw:
        byte-exact ``repl_fetch`` and ``repl_wal`` data, no ``codec`` key."""
        writer.submit_add([0, 1, 2]).result()
        sock = socket.create_connection(v2_server.address, timeout=5)
        try:
            send_frame(
                sock,
                {
                    "op": "hello",
                    "protocol": 1,
                    "protocols": [1, 2],
                    "compression": ["zstd", "zlib"],
                },
            )
            hello = recv_frame(sock)
            assert hello["negotiated"] == PROTOCOL_VERSION_BINARY
            assert "compression" not in hello
            send_frame(sock, {"op": "metric", "s": 2, "columns": True})
            assert len(recv_frame(sock)["edge_ids"])
            send_frame(sock, {"op": "repl_manifest"})
            manifest = recv_frame(sock)
            for entry in manifest["files"]:
                send_frame(
                    sock,
                    {
                        "op": "repl_fetch",
                        "file": entry["name"],
                        "generation": manifest["generation"],
                        "offset": 0,
                        "length": entry["size"],
                        "raw": True,
                    },
                )
                meta, chunk = _sections_and_payload(sock)
                assert meta == [{"dtype": "bytes", "len": entry["size"]}]
                path = os.path.join(store_path, *entry["name"].split("/"))
                with open(path, "rb") as f:
                    assert chunk["data"] == f.read()
            send_frame(
                sock,
                {
                    "op": "repl_wal",
                    "generation": manifest["generation"],
                    "after_bytes": 0,
                    "next_seq": 1,
                    "raw": True,
                },
            )
            meta, suffix = _sections_and_payload(sock)
            with open(os.path.join(store_path, WAL_NAME), "rb") as f:
                wal = f.read()
            assert meta == [{"dtype": "bytes", "len": len(wal)}]
            assert suffix["data"] == wal
            send_frame(sock, {"op": "stats"})
            transport = recv_frame(sock)["stats"]["transport"]
            assert transport["negotiated"] == PROTOCOL_VERSION_BINARY
            assert "compression" not in transport
        finally:
            sock.close()

    def test_client_hello_offers_no_codec(self):
        """A server built when sections could be compressed compresses only
        for a client that offers a codec, so this client gets raw sections
        from it too."""
        listener = socket.create_server(("127.0.0.1", 0))
        hellos = []

        def old_server():
            with listener, listener.accept()[0] as conn:
                hellos.append(recv_frame(conn))
                send_frame(
                    conn,
                    {
                        "ok": True,
                        "op": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "negotiated": PROTOCOL_VERSION_BINARY,
                        "compression": None,
                    },
                )
                recv_frame(conn)
                send_frame(conn, {"ok": True, "op": "goodbye"})

        peer = threading.Thread(target=old_server, daemon=True)
        peer.start()
        with ServiceClient(*listener.getsockname(), connect_retries=1) as client:
            assert client.protocol == PROTOCOL_VERSION_BINARY
        peer.join(timeout=10)
        assert hellos == [{"op": "hello", "protocol": 1, "protocols": [1, 2]}]

    def test_stats_reports_negotiated_protocols(self, v2_server):
        with ServiceClient(*v2_server.address, connect_retries=5) as v2_client:
            with ServiceClient(
                *v2_server.address, connect_retries=5, protocol_max=1
            ) as v1_client:
                # One served request guarantees the connection is past the
                # server's handshake bookkeeping before stats are read.
                assert v1_client.components(2) >= 1
                transport = v2_client.stats()["transport"]
                assert transport["supported"] == [1, 2]
                assert transport["negotiated"] == PROTOCOL_VERSION_BINARY
                assert transport["connections"]["by_protocol"] == {"1": 1, "2": 1}
                transport = v1_client.stats()["transport"]
                assert transport["negotiated"] == PROTOCOL_VERSION


class TestFollowerNeedsProtocol2:
    """A follower in this repo speaks only the byte-offset cursor and raw
    chunks; on a v1 connection it ends in a typed error — never a hang, a
    ``KeyError`` or a partly installed mirror."""

    def test_client_helpers_refuse_before_sending(self, v1_server):
        with ServiceClient(*v1_server.address, connect_retries=5) as client:
            manifest = client.repl_manifest()  # plain JSON: still answered
            served = v1_server.stats.requests_served
            with pytest.raises(ProtocolVersionError, match="needs protocol 2"):
                client.repl_wal_suffix(manifest["generation"], 0, 1)
            with pytest.raises(ProtocolVersionError, match="needs protocol 2"):
                client.repl_fetch(manifest["files"][0]["name"], 0, 0, 64)
            assert v1_server.stats.requests_served == served

    def test_v1_pinned_client_against_a_v2_server_is_refused_too(self, v2_server):
        with ServiceClient(
            *v2_server.address, connect_retries=5, protocol_max=1
        ) as client:
            with pytest.raises(ProtocolVersionError, match="needs protocol 2"):
                client.repl_wal_suffix(0, 0, 1)

    def test_store_mirror_sync_raises_typed(self, v1_server, tmp_path):
        mirror_path = tmp_path / "mirror"
        with ServiceClient(*v1_server.address, connect_retries=5) as client:
            with pytest.raises(ProtocolVersionError, match="needs protocol 2"):
                StoreMirror(client, mirror_path).sync()
        assert not IndexStore.exists(mirror_path)

    def test_remote_read_replica_refuses_to_start(self, v1_server, tmp_path):
        mirror_path = tmp_path / "mirror"
        with pytest.raises(ProtocolVersionError, match="needs protocol 2"):
            RemoteReadReplica(*v1_server.address, mirror_path)
        assert not IndexStore.exists(mirror_path)
        # The failed start released the mirror directory's writer lock.
        StoreLock(mirror_path).acquire(blocking=False).release()

    def test_replica_whose_peer_downgrades_reports_not_ready(
        self, writer, v1_server, tmp_path
    ):
        """A peer restarted as a v1-only build: the replica keeps serving
        its last good mirror and /readyz says why it stopped following."""
        v2_server = SocketServer(writer, port=0).start()
        client = ServiceClient(*v2_server.address, connect_retries=2).connect()
        replica = RemoteReadReplica(store_path=tmp_path / "mirror", client=client)
        try:
            before = replica.metric_by_hyperedge(2, "pagerank")
            v2_server.close()
            client.close()
            client.port = v1_server.port  # the "restarted" peer
            writer.submit_add([0, 1, 2, 3]).result()
            assert replica.metric_by_hyperedge(2, "pagerank") == pytest.approx(before)
            ready, detail = replica.readiness()
            assert not ready and detail["reason"] == "last sync failed"
            assert "ProtocolVersionError" in detail["error"]
            assert "needs protocol 2" in detail["error"]
        finally:
            replica.close()
            client.close()

    def test_cli_replicate_reports_sync_failed(self, v1_server, tmp_path):
        mirror_path = tmp_path / "mirror"
        host, port = v1_server.address
        with pytest.raises(SystemExit, match="sync failed.*needs protocol 2"):
            cli_main(
                ["replicate", "--from", f"{host}:{port}", "--store", str(mirror_path)]
            )
        assert not IndexStore.exists(mirror_path)


class TestServerStillAnswersOlderFollowers:
    """The responders for pre-cursor followers outside this repo stay
    (docs/PROTOCOL.md section 2): record-mode ``repl_wal`` and base64
    ``repl_fetch``/``repl_wal``, pinned here by raw requests because no
    in-repo follower speaks them any more."""

    def test_record_mode_repl_wal(self, v1_server, writer):
        writer.submit_add([0, 1, 2]).result()
        writer.submit_add([1, 2, 3]).result()
        with ServiceClient(*v1_server.address, connect_retries=5) as client:
            full = client.call({"op": "repl_wal", "generation": 0, "after_seq": 0})
            assert full["ok"] and full["total"] == 2
            assert [r["seq"] for r in full["records"]] == [1, 2]
            assert full["records"][0]["payload"]["op"] == "add"
            tail = client.call({"op": "repl_wal", "generation": 0, "after_seq": 1})
            assert [r["seq"] for r in tail["records"]] == [2]

    def test_base64_repl_fetch_and_cursor_repl_wal(self, v1_server, writer, store_path):
        writer.submit_add([0, 1, 2]).result()
        with ServiceClient(*v1_server.address, connect_retries=5) as client:
            manifest = client.repl_manifest()
            entry = manifest["files"][0]
            chunk = client.call(
                {
                    "op": "repl_fetch",
                    "file": entry["name"],
                    "generation": manifest["generation"],
                    "offset": 0,
                    "length": 64,
                }
            )
            assert chunk["ok"] and isinstance(chunk["data"], str)
            with open(os.path.join(store_path, *entry["name"].split("/")), "rb") as f:
                assert base64.b64decode(chunk["data"]) == f.read(64)
            suffix = client.call(
                {"op": "repl_wal", "generation": 0, "after_bytes": 0, "next_seq": 1}
            )
            assert suffix["ok"] and suffix["count"] == 1 and not suffix["rebase"]
            with open(os.path.join(store_path, WAL_NAME), "rb") as f:
                assert base64.b64decode(suffix["data"]) == f.read()


class TestBadBinaryFrames:
    def _handshake(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        send_frame(
            sock,
            {"op": "hello", "protocol": 1, "protocols": [1, 2], "compression": []},
        )
        response = recv_frame(sock)
        assert response["ok"] and response["negotiated"] == PROTOCOL_VERSION_BINARY
        return sock

    def test_garbage_binary_frame_gets_bad_frame(self, v2_server):
        sock = self._handshake(v2_server)
        try:
            garbage = b"\x00\x00\x00\x10" + b"not a json header"
            sock.sendall(LENGTH_PREFIX.pack(BINARY_FLAG | len(garbage)) + garbage)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["code"] == "bad_frame"
            assert recv_frame(sock) is None  # only this connection is dropped
        finally:
            sock.close()

    def test_legacy_hello_settles_on_v1(self, v2_server):
        """A pre-v2 hello (no extension keys) gets a v1 connection, and the
        hello response keeps the frozen ``protocol: 1`` field either way."""
        sock = socket.create_connection(v2_server.address, timeout=5)
        try:
            send_frame(sock, {"op": "hello", "protocol": 1})  # legacy hello
            response = recv_frame(sock)
            assert response["ok"]
            assert response["protocol"] == PROTOCOL_VERSION  # frozen forever
            assert response.get("negotiated", 1) == PROTOCOL_VERSION
            send_frame(sock, {"op": "components", "s": 2})
            assert recv_frame(sock)["ok"]
        finally:
            sock.close()

    def test_other_connections_survive_a_garbage_frame(self, v2_server):
        with ServiceClient(*v2_server.address, connect_retries=5) as healthy:
            assert healthy.components(2) >= 1
            bad = self._handshake(v2_server)
            try:
                payload = b"\xff\xff\xff\xff garbage"
                bad.sendall(LENGTH_PREFIX.pack(BINARY_FLAG | len(payload)) + payload)
                response = recv_frame(bad)
                assert response["code"] == "bad_frame"
            finally:
                bad.close()
            # The healthy client's connection is untouched.
            assert healthy.components(2) >= 1
            assert healthy.metric(2, "connected_components")

"""Shutdown drain semantics: pipelined frames get typed answers.

A client that pipelined requests into a server that is shutting down must
not see a silent EOF for frames the server already accepted: the drain
answers each with a typed ``E_UNAVAILABLE`` error (so the client can
retry elsewhere), honours a pipelined ``goodbye``, and is bounded so a
streaming peer cannot hold a handler thread past ``close()``.
"""

import socket
import threading
import time

import pytest

from repro.chaos import failpoints as fp
from repro.service import SocketServer
from repro.service.contract import E_UNAVAILABLE
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    encode_frame,
    hello_request,
    recv_frame,
    send_frame,
)


@pytest.fixture(autouse=True)
def clean_failpoints():
    fp.reset()
    yield
    fp.reset()


def _handshake(address):
    sock = socket.create_connection(address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_frame(sock, hello_request())
    hello = recv_frame(sock)
    assert hello["ok"], hello
    return sock


class TestShutdownDrain:
    def _close_during_request(self, server, sock, pipelined):
        """Send a slowed request + ``pipelined`` extras, then close().

        The ``service.execute`` delay failpoint keeps the first request
        in flight long enough for ``close()`` to set the stop flag, so
        the extras deterministically land in the drain path.
        """
        fp.activate("service.execute", "delay", value=400)
        send_frame(sock, {"op": "stats"})
        time.sleep(0.05)  # let the handler pick up the slowed request
        fp.deactivate("service.execute")
        for frame in pipelined:
            send_frame(sock, frame)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        first = recv_frame(sock)
        assert first["ok"], first  # the in-flight request was served
        responses = [recv_frame(sock) for _ in pipelined]
        closer.join(timeout=15.0)
        assert not closer.is_alive(), "close() hung on the draining handler"
        return responses

    def test_pipelined_frames_get_typed_unavailable_answers(self, writer):
        server = SocketServer(writer, port=0, max_connections=4).start()
        sock = _handshake(server.address)
        try:
            responses = self._close_during_request(
                server, sock,
                [{"op": "metric", "s": 1}, {"op": "stats"}],
            )
            assert len(responses) == 2
            for response in responses:
                assert response is not None, "silent EOF instead of an answer"
                assert response["ok"] is False
                assert response["code"] == E_UNAVAILABLE
                assert "shutting down" in response["error"]
            assert recv_frame(sock) is None  # then EOF
        finally:
            sock.close()
            server.close()

    def test_pipelined_goodbye_is_honoured(self, writer):
        server = SocketServer(writer, port=0, max_connections=4).start()
        sock = _handshake(server.address)
        try:
            (response,) = self._close_during_request(
                server, sock, [{"op": "goodbye"}]
            )
            assert response == {"ok": True, "op": "goodbye"}
        finally:
            sock.close()
            server.close()

    def test_no_handler_threads_survive_close(self, writer):
        server = SocketServer(writer, port=0, max_connections=4).start()
        socks = [_handshake(server.address) for _ in range(3)]
        try:
            for sock in socks:
                send_frame(sock, {"op": "stats"})
                assert recv_frame(sock)["ok"]
            server.close()
            lingering = [
                t for t in threading.enumerate()
                if t.name.startswith(("repro-serve-", "repro-conn-"))
                and t.is_alive()
            ]
            assert lingering == [], lingering
        finally:
            for sock in socks:
                sock.close()

    def test_idle_connection_sees_clean_eof_on_close(self, writer):
        """An idle peer (no pipelined frames) gets EOF, not an error."""
        server = SocketServer(writer, port=0, max_connections=4).start()
        sock = _handshake(server.address)
        try:
            server.close()
            assert recv_frame(sock) is None
        finally:
            sock.close()


class TestCloseWakesBlockedThreads:
    """close() wakes the threads blocked on its sockets: no poll tick."""

    def test_close_with_an_idle_connection_returns_at_once(self, writer):
        for _ in range(5):
            server = SocketServer(writer, port=0).start()
            sock = _handshake(server.address)
            try:
                start = time.perf_counter()
                server.close()
                assert time.perf_counter() - start < 0.1
                assert not [
                    t for t in threading.enumerate()
                    if t.name.startswith(("repro-serve-", "repro-conn-"))
                ]
            finally:
                sock.close()

    def test_half_sent_frame_is_dropped_at_close(self, writer):
        server = SocketServer(writer, port=0).start()
        sock = _handshake(server.address)
        try:
            frame = encode_frame({"op": "stats"}, DEFAULT_MAX_FRAME_BYTES)
            sock.sendall(frame[: len(frame) // 2])
            start = time.perf_counter()
            server.close()
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass
            assert time.perf_counter() - start < 0.5
        finally:
            sock.close()

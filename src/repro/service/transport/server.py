"""A threaded socket server fronting one :class:`QueryService`.

:class:`SocketServer` puts the wire protocol of
:mod:`repro.service.transport.framing` in front of an existing
:class:`~repro.service.QueryService` — writer or read-only replica alike —
so clients on other machines reach the same batched, read-locked serving
path local callers use.  One thread accepts connections; each connection
gets a handler thread that performs the version handshake — negotiating a
per-connection data plane (JSON v1, or the binary v2 frames of
``docs/PROTOCOL.md``) — and then serves frames in order, so a client may
*pipeline* (send several requests before reading the first response) and
still match responses to requests by position.  ``batch`` frames
additionally fan out over the service's worker threads, turning one round
trip into a parallel serve.

Backpressure is explicit: past ``max_connections`` concurrently served
connections, new ones are answered with an :data:`~framing.E_BUSY` error
frame and closed instead of being queued invisibly — clients retry with
backoff (:class:`~repro.service.transport.client.ServiceClient` does so
automatically).

Shutdown is graceful and waits on no clock: every socket blocks without a
timeout, and :meth:`close` wakes the threads blocked on them.  It shuts
the listener down, which ends the accept loop, then shuts down the read
side of every live connection, which wakes its handler.  A request already
executing is answered; frames the peer had already pipelined are answered
``unavailable``; a frame only partly received is dropped with its
connection.  ``close`` joins every handler before returning, so a CLI
``serve --listen`` process releases its store lock deterministically on
SIGTERM.

The wake-ups rely on Linux socket semantics: ``shutdown(SHUT_RDWR)`` on a
listening socket makes a blocked ``accept()`` fail with ``EINVAL``, and
``shutdown(SHUT_RD)`` on a connection makes a blocked ``recv()`` return
end-of-stream while bytes that already arrived stay readable.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chaos.failpoints import TRANSPORT_RECV, TRANSPORT_SEND
from repro.obs import get_registry, get_tracer
from repro.service.contract import (
    E_BAD_FRAME,
    E_BAD_REQUEST,
    E_BUSY,
    E_INTERNAL,
    E_PROTOCOL,
    E_UNAVAILABLE,
    OP_NAMES,
    op_name,
)
from repro.service.service import QueryService
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_BINARY,
    SUPPORTED_PROTOCOLS,
    FrameError,
    FrameTooLargeError,
    TruncatedFrameError,
    encode_binary_frame,
    encode_frame,
    negotiate_protocol,
    payload_has_sections,
    recv_frame,
)

#: Listen-queue depth: connections the kernel holds between ``accept`` calls.
_BACKLOG = 32

#: Seconds a closing handler spends answering frames the peer keeps
#: sending after :meth:`SocketServer.close`, before it drops the connection.
_SHUTDOWN_GRACE = 1.0

#: Per-response send deadline.  Connections otherwise block without a
#: timeout, but a peer that stops reading must not pin its handler in
#: ``sendall`` forever — a large metric map, or a pipelining client that has
#: not started reading yet, gets this long before the connection is
#: declared dead.
_SEND_TIMEOUT = 60.0

#: Ops handled by the transport itself rather than the service.
_TRANSPORT_OPS = frozenset({"hello", "goodbye", "batch"})


@dataclass
class ServerStats:
    """Counters describing a server's lifetime (observability / tests)."""

    connections_accepted: int = 0
    connections_rejected: int = 0
    requests_served: int = 0
    frames_rejected: int = 0
    active_connections: int = 0


def _shutdown_quietly(sock: socket.socket, how: int) -> None:
    """``sock.shutdown(how)``, ignoring a socket no longer connected."""
    try:
        sock.shutdown(how)
    except OSError:
        pass


def _request_needs_v2(request: Dict[str, object]) -> bool:
    """Whether a request asks for a response only binary frames can carry.

    ``columns`` responses hold numpy buffers and ``raw`` replication
    payloads hold undecoded bytes; neither survives JSON encoding, so a
    v1 connection must get a typed ``bad_request`` instead of a server
    that dies trying to serialise the answer.
    """
    if request.get("columns") or request.get("raw"):
        return True
    if op_name(request) == "batch":
        requests = request.get("requests")
        if isinstance(requests, list):
            return any(
                isinstance(sub, dict) and (sub.get("columns") or sub.get("raw"))
                for sub in requests
            )
    return False


class SocketServer:
    """Serve a :class:`QueryService` over length-prefixed JSON frames.

    Parameters
    ----------
    service:
        The (already constructed) service to front — writer or read-only.
        The server never closes it; the owner does.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; read it back
        from :attr:`port` / :attr:`address` after construction.
    max_connections:
        Concurrently served connections before new ones are turned away
        with an ``E_BUSY`` error frame (the backpressure contract).
    max_frame_bytes:
        Per-frame cap, both directions (see the framing module).
    protocol_max:
        Highest protocol version this server will negotiate (default: the
        newest it implements).  ``protocol_max=1`` pins the server to the
        JSON-only v1 data plane — the operator's big red lever while a
        mixed-version fleet rolls out (see ``docs/PROTOCOL.md``).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 32,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        protocol_max: Optional[int] = None,
    ) -> None:
        self.service = service
        self.max_connections = int(max_connections)
        self.max_frame_bytes = int(max_frame_bytes)
        if protocol_max is None:
            protocol_max = max(SUPPORTED_PROTOCOLS)
        if int(protocol_max) < PROTOCOL_VERSION:
            raise ValueError(
                f"protocol_max must be >= {PROTOCOL_VERSION}, got {protocol_max!r}"
            )
        self._protocols: Tuple[int, ...] = tuple(
            version for version in SUPPORTED_PROTOCOLS if version <= int(protocol_max)
        )
        #: conn_id -> negotiated protocol for live connections; feeds the
        #: ``stats()["transport"]`` enrichment.
        self._conn_protocols: Dict[int, int] = {}
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self.stats = ServerStats()
        self._handlers_lock = threading.Lock()
        #: conn_id -> (handler thread, its socket) for live connections;
        #: :meth:`close` needs the sockets to wake the threads.
        self._handlers: Dict[int, Tuple[threading.Thread, socket.socket]] = {}
        self._conn_counter = 0
        self._tracer = get_tracer()
        registry = get_registry()
        latency = registry.histogram(
            "repro_request_seconds",
            "Wall time serving one request frame, by op.",
            ("op",),
        )
        # Children are bound once here so the per-request cost is a single
        # striped observe — and the label set stays bounded no matter what
        # clients send: the contract's rows plus the transport's own
        # ``batch``; anything else is folded into ``other``.
        self._m_latency = {
            op: latency.labels(op=op) for op in (*OP_NAMES, "batch", "other")
        }
        self._m_inflight = registry.gauge(
            "repro_inflight_requests", "Request frames currently being served."
        )
        self._m_errors = registry.counter(
            "repro_request_errors_total",
            "Failed responses, by op and transport error code.",
            ("op", "code"),
        )
        self._accept_thread: Optional[threading.Thread] = None
        self._listener = socket.create_server((host, int(port)), backlog=_BACKLOG)
        self.host, self.port = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        return self.host, self.port

    def start(self) -> "SocketServer":
        """Start the accept loop in a daemon thread and return ``self``."""
        if self._accept_thread is not None:
            raise RuntimeError("server already started")
        if self._stop.is_set():
            raise RuntimeError("server already closed")
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-serve-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight requests, join every handler.

        Shutting the sockets down wakes the threads blocked on them (see
        the module docstring), so an idle server closes at once.
        """
        with self._handlers_lock:
            if self._stop.is_set():
                return
            self._stop.set()
        _shutdown_quietly(self._listener, socket.SHUT_RDWR)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        self._listener.close()
        deadline = time.monotonic() + timeout
        with self._handlers_lock:
            handlers = list(self._handlers.values())
            # Under the lock: a handler deregisters before it closes its
            # socket, so this never shuts down a descriptor already reused.
            for _, conn in handlers:
                _shutdown_quietly(conn, socket.SHUT_RD)
        for thread, _ in handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "SocketServer":
        return self.start() if self._accept_thread is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._stop.is_set() else "serving"
        return f"SocketServer({self.host}:{self.port}, {state})"

    # ------------------------------------------------------------------ #
    # Accept loop
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down by close()
            with self._handlers_lock:
                if self._stop.is_set():
                    conn.close()
                    return
                active = len(self._handlers)
                if active >= self.max_connections:
                    handler = None
                else:
                    self._conn_counter += 1
                    conn_id = self._conn_counter
                    handler = threading.Thread(
                        target=self._handle_connection,
                        args=(conn, conn_id),
                        name=f"repro-conn-{conn_id}",
                        daemon=True,
                    )
                    self._handlers[conn_id] = (handler, conn)
            if handler is None:
                self._reject_busy(conn, active)
                continue
            with self._stats_lock:
                self.stats.connections_accepted += 1
                self.stats.active_connections += 1
            handler.start()

    def _reject_busy(self, conn: socket.socket, active: int) -> None:
        """Turn a connection away with an explicit backpressure signal."""
        with self._stats_lock:
            self.stats.connections_rejected += 1
        self._send_best_effort(
            conn,
            {
                "ok": False,
                "code": E_BUSY,
                "error": (
                    f"server at connection limit ({active}/"
                    f"{self.max_connections}); retry later"
                ),
            },
        )
        conn.close()

    # ------------------------------------------------------------------ #
    # Per-connection handling
    # ------------------------------------------------------------------ #
    def _handle_connection(self, conn: socket.socket, conn_id: int) -> None:
        try:
            proto = self._handshake(conn)
            if proto is not None:
                with self._handlers_lock:
                    self._conn_protocols[conn_id] = proto
                self._serve_frames(conn, proto)
        except (FrameError, ConnectionError, OSError):
            pass  # connection-level failure: drop this client only
        finally:
            with self._handlers_lock:
                self._handlers.pop(conn_id, None)
                self._conn_protocols.pop(conn_id, None)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            with self._stats_lock:
                self.stats.active_connections -= 1

    def _handshake(self, conn: socket.socket) -> Optional[int]:
        """Require a matching ``hello`` as the first frame; ack or reject.

        Returns the negotiated protocol for the connection, or ``None``
        when the hello was rejected.  The baseline ``protocol`` field must
        equal :data:`PROTOCOL_VERSION` exactly (v1 semantics, frozen
        forever); newer data planes are offered through the *additive*
        ``protocols`` list, which v1 peers never send and never read — see
        ``docs/PROTOCOL.md``.  A ``compression`` list, which older clients
        send, is ignored: sections always travel raw.
        """
        try:
            request = self._read_frame(conn)
        except TruncatedFrameError:
            return None  # peer vanished mid-handshake; nothing to answer
        except FrameError as exc:
            # Oversized or unparseable hello: answer like any later bad
            # frame, so the peer can tell "my frame was bad" from "the
            # server died".
            self._reject_frame(conn, str(exc))
            return None
        if request is None:
            return None
        if request.get("op") != "hello":
            self._send_best_effort(
                conn,
                {
                    "ok": False,
                    "code": E_PROTOCOL,
                    "error": "first frame must be {'op': 'hello', 'protocol': N}",
                },
            )
            return None
        if request.get("protocol") != PROTOCOL_VERSION:
            self._send_best_effort(
                conn,
                {
                    "ok": False,
                    "code": E_PROTOCOL,
                    "error": (
                        f"client speaks protocol {request.get('protocol')!r}, "
                        f"server speaks {PROTOCOL_VERSION}"
                    ),
                    "protocol": PROTOCOL_VERSION,
                },
            )
            return None
        offered = request.get("protocols")
        if not isinstance(offered, (list, tuple)):
            offered = None
        proto = negotiate_protocol(offered, self._protocols)
        self._send(
            conn,
            {
                "ok": True,
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "protocols": list(self._protocols),
                "negotiated": proto,
                "server": "repro",
                "read_only": self.service.read_only,
                "generation": self.service.generation,
            },
        )
        return proto

    def _serve_frames(self, conn: socket.socket, proto: int = PROTOCOL_VERSION) -> None:
        """Answer frames in order until EOF, ``goodbye`` or shutdown."""
        while not self._stop.is_set():
            try:
                request = self._read_frame(conn)
            except TruncatedFrameError:
                return  # peer vanished mid-frame; nothing to answer
            except FrameError as exc:
                self._reject_frame(conn, str(exc))
                return
            if request is None:
                return
            op = op_name(request)
            if op == "goodbye":
                self._send_best_effort(conn, {"ok": True, "op": "goodbye"})
                return
            latency = self._m_latency.get(op, self._m_latency["other"])
            self._m_inflight.inc()
            start = time.perf_counter()
            try:
                # The server span is the sampling point of every trace (or
                # joins the caller's via the optional `trace` field, which
                # pre-tracing clients simply never send).
                with self._tracer.start_request(
                    f"server.{op or 'unknown'}",
                    remote=request.get("trace"),
                    attributes={"op": op},
                ) as span:
                    if proto < PROTOCOL_VERSION_BINARY and _request_needs_v2(request):
                        response = {
                            "ok": False,
                            "op": op,
                            "code": E_BAD_REQUEST,
                            "error": (
                                "'columns'/'raw' responses need a binary data "
                                f"plane; this connection negotiated protocol {proto}"
                            ),
                        }
                    elif op == "batch":
                        response = self._serve_batch(request)
                    else:
                        response = self.service.execute(request)
                        if op == "stats" and response.get("ok"):
                            stats_obj = response.get("stats")
                            if isinstance(stats_obj, dict):
                                stats_obj["transport"] = self._transport_stats(proto)
                    if not response.get("ok"):
                        span.set_status(
                            "error", str(response.get("code", E_INTERNAL))
                        )
            finally:
                latency.observe(time.perf_counter() - start)
                self._m_inflight.dec()
            if not response.get("ok"):
                self._m_errors.labels(
                    op=op if op in self._m_latency else "other",
                    code=str(response.get("code", E_INTERNAL)),
                ).inc()
            with self._stats_lock:
                self.stats.requests_served += 1
            try:
                self._send(conn, response, proto=proto)
            except FrameTooLargeError as exc:
                # The *response* blew the frame cap (e.g. a metric map over
                # a huge store).  Answer with a small error frame instead of
                # dropping the connection — pairing is preserved, the client
                # learns why, and an idempotent retry of the same doomed
                # query is avoided.
                self._send(
                    conn,
                    {
                        "ok": False,
                        "op": op,
                        "code": E_BAD_FRAME,
                        "error": f"response exceeds the frame cap: {exc}",
                    },
                )
        # Shutting down: drain frames the client already pipelined with a
        # typed `unavailable` answer each, then end the stream.  Every
        # response pairs with a frame the peer actually sent, so pipelining
        # stays aligned — but the peer learns *why* instead of reading a
        # bare EOF, and can route the retry to another replica.
        self._drain_on_shutdown(conn)

    def _drain_on_shutdown(self, conn: socket.socket) -> None:
        """Answer already-pipelined frames with ``E_UNAVAILABLE``, bounded.

        The drain budget is one :data:`_SHUTDOWN_GRACE` window for the
        whole connection, so a peer that keeps streaming cannot hold its
        handler past :meth:`close`'s join deadline.
        """
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        while time.monotonic() < deadline:
            try:
                request = self._read_frame(conn)
            except FrameError:
                return
            if request is None:
                return
            op = op_name(request)
            if op == "goodbye":
                self._send_best_effort(conn, {"ok": True, "op": "goodbye"})
                return
            self._send_best_effort(
                conn,
                {
                    "ok": False,
                    "op": op,
                    "code": E_UNAVAILABLE,
                    "error": "server is shutting down; retry against another replica",
                },
            )

    def _serve_batch(self, request: Dict[str, object]) -> Dict[str, object]:
        requests = request.get("requests")
        if not isinstance(requests, list) or not all(
            isinstance(r, dict) for r in requests
        ):
            return {
                "ok": False,
                "op": "batch",
                "code": E_BAD_REQUEST,
                "error": "'batch' needs a 'requests' list of objects",
            }
        if any(op_name(r) in _TRANSPORT_OPS for r in requests):
            return {
                "ok": False,
                "op": "batch",
                "code": E_BAD_REQUEST,
                "error": "transport ops cannot be nested inside a batch",
            }
        return {"ok": True, "op": "batch", "results": self.service.serve(requests)}

    # ------------------------------------------------------------------ #
    # Frame I/O
    # ------------------------------------------------------------------ #
    def _read_frame(self, conn: socket.socket) -> Optional[Dict[str, object]]:
        """:func:`framing.recv_frame`: ``None`` on end-of-stream.

        :meth:`close` ends a blocked read by shutting the read side down:
        at a frame boundary that reads as end-of-stream, mid-frame as a
        :class:`TruncatedFrameError`.
        """
        request = recv_frame(conn, self.max_frame_bytes)
        if request is not None:
            # Chaos: a fault here models a receive-side failure after the
            # frame arrived — `drop` abandons the client like a real reset.
            TRANSPORT_RECV.fire()
        return request

    def _reject_frame(self, conn: socket.socket, message: str) -> None:
        with self._stats_lock:
            self.stats.frames_rejected += 1
        self._send_best_effort(
            conn, {"ok": False, "code": E_BAD_FRAME, "error": message}
        )

    def _transport_stats(self, proto: int) -> Dict[str, object]:
        """Per-connection protocol mix for ``stats()["transport"]``.

        ``negotiated`` describes the asking connection;
        ``by_protocol`` counts every live connection so operators can see
        which peers are still on the v1 JSON data plane.
        """
        by_protocol: Dict[str, int] = {}
        with self._handlers_lock:
            for conn_proto in self._conn_protocols.values():
                key = str(conn_proto)
                by_protocol[key] = by_protocol.get(key, 0) + 1
        return {
            "supported": list(self._protocols),
            "negotiated": proto,
            "connections": {
                "active": sum(by_protocol.values()),
                "by_protocol": by_protocol,
            },
        }

    def _send(
        self,
        conn: socket.socket,
        payload: Dict[str, object],
        proto: int = PROTOCOL_VERSION,
    ) -> None:
        # Chaos: fired before the frame hits the wire, so a `drop` models a
        # response lost in transit — the request WAS executed (an acked
        # update is durable even though the client never saw the ack).
        TRANSPORT_SEND.fire()
        if proto >= PROTOCOL_VERSION_BINARY and payload_has_sections(payload):
            frame = encode_binary_frame(payload, self.max_frame_bytes)
        else:
            frame = encode_frame(payload, self.max_frame_bytes)
        conn.settimeout(_SEND_TIMEOUT)
        try:
            conn.sendall(frame)
        finally:
            conn.settimeout(None)

    def _send_best_effort(self, conn: socket.socket, payload: Dict[str, object]) -> None:
        try:
            self._send(conn, payload)
        except (FrameError, ConnectionError, OSError):
            pass

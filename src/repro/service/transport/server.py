"""A threaded socket server fronting one :class:`QueryService`.

:class:`SocketServer` puts the wire protocol of
:mod:`repro.service.transport.framing` in front of an existing
:class:`~repro.service.QueryService` — writer or read-only replica alike —
so clients on other machines reach the same batched, read-locked serving
path local callers use.  One thread accepts connections; each connection
gets a handler thread that performs the version handshake — negotiating a
per-connection data plane (JSON v1, or the binary v2 frames of
``docs/PROTOCOL.md`` with an optional compression codec) — and then serves
frames in order, so a client may *pipeline* (send several requests before
reading the first response) and still match responses to requests by
position.  ``batch`` frames additionally fan out over the service's worker
threads, turning one round trip into a parallel serve.

Backpressure is explicit: past ``max_connections`` concurrently served
connections, new ones are answered with an :data:`~framing.E_BUSY` error
frame and closed instead of being queued invisibly — clients retry with
backoff (:class:`~repro.service.transport.client.ServiceClient` does so
automatically).

Shutdown is graceful: :meth:`close` stops the accept loop, lets in-flight
requests finish (handlers notice the stop flag between frames; a frame
already half-read gets a short grace period), and joins every handler
before returning, so a CLI ``serve --listen`` process releases its store
lock deterministically on SIGTERM.
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
    negotiate_codec,
    negotiate_protocol,
    payload_has_sections,
    recv_frame,
)

#: Listen-queue depth: connections the kernel holds between ``accept`` calls.
_BACKLOG = 32

#: Seconds a handler blocked in ``recv`` waits before re-checking the stop
#: flag (bounds shutdown latency; no effect on throughput).
_POLL_INTERVAL = 0.2

#: Seconds a closing handler keeps waiting for the rest of a frame whose
#: first bytes already arrived, before abandoning the connection.
_SHUTDOWN_GRACE = 1.0

#: Per-response send deadline.  The socket's 0.2s poll timeout is right
#: for receives (bounds shutdown latency) but would abort any ``sendall``
#: whose frame outlives the kernel send buffer — a large metric map, or a
#: pipelining client that has not started reading yet — so sends get their
#: own, much larger budget before the connection is declared dead.
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
        #: conn_id -> (negotiated protocol, negotiated codec) for live
        #: connections; feeds the ``stats()["transport"]`` enrichment.
        self._conn_protocols: Dict[int, Tuple[int, Optional[str]]] = {}
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self.stats = ServerStats()
        self._handlers_lock = threading.Lock()
        self._handlers: Dict[int, threading.Thread] = {}
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
        self._listener.settimeout(_POLL_INTERVAL)
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
        """Stop accepting, drain in-flight requests, join every handler."""
        if self._stop.is_set():
            return
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        deadline = time.monotonic() + timeout
        with self._handlers_lock:
            handlers = list(self._handlers.values())
        for thread in handlers:
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
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by close()
            if self._stop.is_set():
                conn.close()
                break
            with self._handlers_lock:
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
                    self._handlers[conn_id] = handler
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
            conn.settimeout(_POLL_INTERVAL)
            negotiated = self._handshake(conn)
            if negotiated is not None:
                proto, codec = negotiated
                with self._handlers_lock:
                    self._conn_protocols[conn_id] = (proto, codec)
                self._serve_frames(conn, proto, codec)
        except (FrameError, ConnectionError, OSError):
            pass  # connection-level failure: drop this client only
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            with self._handlers_lock:
                self._handlers.pop(conn_id, None)
                self._conn_protocols.pop(conn_id, None)
            with self._stats_lock:
                self.stats.active_connections -= 1

    def _handshake(self, conn: socket.socket) -> Optional[Tuple[int, Optional[str]]]:
        """Require a matching ``hello`` as the first frame; ack or reject.

        Returns the negotiated ``(protocol, codec)`` for the connection, or
        ``None`` when the hello was rejected.  The baseline ``protocol``
        field must equal :data:`PROTOCOL_VERSION` exactly (v1 semantics,
        frozen forever); newer data planes are offered through the
        *additive* ``protocols``/``compression`` lists, which v1 peers
        never send and never read — see ``docs/PROTOCOL.md``.
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
        codec: Optional[str] = None
        if proto >= PROTOCOL_VERSION_BINARY:
            peer_codecs = request.get("compression")
            if isinstance(peer_codecs, (list, tuple)):
                codec = negotiate_codec(peer_codecs)
        self._send(
            conn,
            {
                "ok": True,
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "protocols": list(self._protocols),
                "negotiated": proto,
                "compression": codec,
                "server": "repro",
                "read_only": self.service.read_only,
                "generation": self.service.generation,
            },
        )
        return proto, codec

    def _serve_frames(
        self, conn: socket.socket, proto: int = PROTOCOL_VERSION, codec: Optional[str] = None
    ) -> None:
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
                                stats_obj["transport"] = self._transport_stats(
                                    proto, codec
                                )
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
                self._send(conn, response, proto=proto, codec=codec)
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
    # Frame I/O (stop-flag aware)
    # ------------------------------------------------------------------ #
    def _read_frame(self, conn: socket.socket) -> Optional[Dict[str, object]]:
        """:func:`framing.recv_frame` with the stop flag wired in.

        Returns ``None`` on clean EOF or when shutdown arrives between
        frames; mid-frame shutdown grants :data:`_SHUTDOWN_GRACE` seconds
        for the rest of the frame before giving up on the connection.
        """
        grace_deadline: Optional[float] = None

        def on_timeout(mid_frame: bool) -> bool:
            """Decide, per poll tick, whether the read should give up."""
            nonlocal grace_deadline
            if not self._stop.is_set():
                return False  # plain poll tick: keep waiting
            if not mid_frame:
                return True  # idle at a frame boundary: stop cleanly
            if grace_deadline is None:
                grace_deadline = time.monotonic() + _SHUTDOWN_GRACE
            return time.monotonic() > grace_deadline

        request = recv_frame(conn, self.max_frame_bytes, on_timeout=on_timeout)
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

    def _transport_stats(
        self, proto: int, codec: Optional[str]
    ) -> Dict[str, object]:
        """Per-connection protocol mix for ``stats()["transport"]``.

        ``negotiated``/``compression`` describe the asking connection;
        ``by_protocol`` counts every live connection so operators can see
        which peers are still on the v1 JSON data plane.
        """
        by_protocol: Dict[str, int] = {}
        with self._handlers_lock:
            for conn_proto, _ in self._conn_protocols.values():
                key = str(conn_proto)
                by_protocol[key] = by_protocol.get(key, 0) + 1
        return {
            "supported": list(self._protocols),
            "negotiated": proto,
            "compression": codec,
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
        codec: Optional[str] = None,
    ) -> None:
        # Chaos: fired before the frame hits the wire, so a `drop` models a
        # response lost in transit — the request WAS executed (an acked
        # update is durable even though the client never saw the ack).
        TRANSPORT_SEND.fire()
        if proto >= PROTOCOL_VERSION_BINARY and payload_has_sections(payload):
            frame = encode_binary_frame(payload, self.max_frame_bytes, codec=codec)
        else:
            frame = encode_frame(payload, self.max_frame_bytes)
        conn.settimeout(_SEND_TIMEOUT)
        try:
            conn.sendall(frame)
        finally:
            conn.settimeout(_POLL_INTERVAL)

    def _send_best_effort(self, conn: socket.socket, payload: Dict[str, object]) -> None:
        try:
            self._send(conn, payload)
        except (FrameError, ConnectionError, OSError):
            pass

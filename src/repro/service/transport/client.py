"""A blocking client for the socket serving protocol.

:class:`ServiceClient` speaks the wire protocol of
:mod:`repro.service.transport.framing` (see ``docs/PROTOCOL.md``) to a
:class:`~repro.service.transport.SocketServer`.  It owns one connection,
performs the version handshake on connect — negotiating the highest data
plane both ends support (JSON v1, or the binary v2 frames that carry
numpy column buffers and raw replication bytes, with an optional
compression codec) — and retries with a fixed interval while the server
is still coming up or is at its connection limit (``E_BUSY``
backpressure), so fleets of readers can start before — or survive
restarts of — their server.  The negotiated version is transparent to the
typed helpers: :meth:`~ServiceClient.metric` returns the same ``{edge_id:
value}`` mapping whether the wire carried a JSON object or int64/float64
columns.

Failure semantics
-----------------
*Queries* (``metric`` / ``components`` / ``sweep`` / ``stats`` / ``batch``
of queries) are idempotent: when the connection drops mid-call the client
transparently reconnects and retries once.  *Updates* are not retried:
``add``/``remove`` are sent with ``wait=True`` by default, so a normal
response **is** the durability acknowledgement (the server answers after
the admission queue's group commit fsyncs — see
:class:`repro.service.AdmissionQueue`).  If the connection dies between
sending an update and reading its response, the update's fate is unknown
(it may or may not have committed) and the client raises
:class:`~framing.TransportError` rather than guessing; callers decide
whether to re-send, exactly like any at-least-once ingestion path.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.service.contract import E_STALE, is_idempotent, op_name
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_BINARY,
    SUPPORTED_PROTOCOLS,
    FrameError,
    ProtocolVersionError,
    RemoteServiceError,
    ServiceBusyError,
    TransportError,
    TruncatedFrameError,
    available_codecs,
    check_hello_response,
    hello_request,
    recv_frame,
    send_frame,
)
from repro.obs.trace import get_tracer
from repro.store.replication import ReplicationStaleError


def _close_quietly(sock: Optional[socket.socket]) -> None:
    """Close a socket without letting the close itself raise.

    ``socket.close`` can fail with ``OSError`` (e.g. a pending ECONNRESET
    flushed at close time); surfacing that from an error-handling path
    would leak a raw ``OSError`` through the client's typed
    :class:`TransportError` contract.
    """
    if sock is None:
        return
    try:
        sock.close()
    except OSError:  # pragma: no cover - platform/timing dependent
        pass


def _is_idempotent(request: Dict[str, object]) -> bool:
    """Whether re-sending ``request`` after a connection drop is safe.

    A ``batch`` is only as idempotent as its contents: one ``add`` inside
    makes the whole frame non-retryable, otherwise a batch committed just
    before the connection died would be applied twice on the re-send.
    Which ops qualify is the contract's ``idempotent`` flag — the
    replication ops do, so a mirror mid-sync survives a server restart.
    """
    op = op_name(request)
    if op == "batch":
        requests = request.get("requests")
        return isinstance(requests, list) and all(
            isinstance(r, dict) and is_idempotent(op_name(r)) for r in requests
        )
    return is_idempotent(op)


class ServiceClient:
    """One blocking connection to a serving socket, with retry/reconnect.

    Parameters
    ----------
    host / port:
        The server's bound address.
    timeout:
        Per-operation socket timeout in seconds (connect, send, receive).
    connect_retries / retry_interval:
        How often (and how patiently) to retry a refused or ``E_BUSY``
        connection before raising.  The total connect budget is roughly
        ``connect_retries * retry_interval`` plus network timeouts.
    reconnect:
        Transparently reconnect and retry **idempotent** requests once
        when the connection drops mid-call (see the module docstring).
    protocol_max:
        Highest protocol version to offer in the handshake.
        ``protocol_max=1`` pins the client to the JSON-only v1 data plane
        (it then sends the exact hello a pre-v2 client sends); the default
        offers everything this build implements and lets the server pick
        ``max(common)``.  A binary (v2) connection offers every
        compression codec this build can decode (``zstd``/``zlib``) for
        replication payloads.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_retries: int = 40,
        retry_interval: float = 0.25,
        reconnect: bool = True,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        protocol_max: Optional[int] = None,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.connect_retries = int(connect_retries)
        self.retry_interval = float(retry_interval)
        self.reconnect = bool(reconnect)
        self.max_frame_bytes = int(max_frame_bytes)
        if protocol_max is None:
            protocol_max = max(SUPPORTED_PROTOCOLS)
        if int(protocol_max) < PROTOCOL_VERSION:
            raise ValueError(
                f"protocol_max must be >= {PROTOCOL_VERSION}, got {protocol_max!r}"
            )
        self._protocols = tuple(
            version for version in SUPPORTED_PROTOCOLS if version <= int(protocol_max)
        )
        self._protocol = PROTOCOL_VERSION
        self._codec: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._tracer = get_tracer()
        #: The server's handshake payload (mode, generation, protocol).
        self.server_info: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    @property
    def connected(self) -> bool:
        """Whether a live socket is currently held (not a health check)."""
        return self._sock is not None

    @property
    def protocol(self) -> int:
        """Protocol version negotiated on the live connection.

        :data:`~framing.PROTOCOL_VERSION` (1, the JSON data plane) until a
        handshake negotiates higher; reset per connection, so a reconnect
        to a downgraded server is reflected immediately.
        """
        return self._protocol

    @property
    def compression(self) -> Optional[str]:
        """Codec negotiated for binary replication payloads (or ``None``)."""
        return self._codec

    def connect(self) -> "ServiceClient":
        """Connect and handshake, retrying refused/busy attempts."""
        if self._sock is not None:
            return self
        last_error: Optional[Exception] = None
        for attempt in range(max(1, self.connect_retries)):
            if attempt:
                time.sleep(self.retry_interval)
            sock = None
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = hello_request()
                if len(self._protocols) > 1:
                    # Additive extension keys only — a client pinned to v1
                    # sends the exact hello a pre-v2 build sends, and v1
                    # servers ignore unknown keys (docs/PROTOCOL.md).
                    hello["protocols"] = list(self._protocols)
                    hello["compression"] = list(available_codecs())
                send_frame(sock, hello, self.max_frame_bytes)
                response = recv_frame(sock, self.max_frame_bytes)
                if response is None:
                    raise TruncatedFrameError("server closed during handshake")
                self.server_info = check_hello_response(response)
                try:
                    negotiated = int(response.get("negotiated", PROTOCOL_VERSION))
                except (TypeError, ValueError):
                    negotiated = PROTOCOL_VERSION
                # Clamp: never speak higher than we offered, whatever the
                # server claims.
                self._protocol = max(
                    PROTOCOL_VERSION, min(negotiated, max(self._protocols))
                )
                codec = response.get("compression")
                self._codec = (
                    str(codec)
                    if codec and self._protocol >= PROTOCOL_VERSION_BINARY
                    else None
                )
                self._sock = sock
                return self
            except (ProtocolVersionError, RemoteServiceError):
                _close_quietly(sock)
                raise  # retrying cannot fix a rejected handshake
            except (ServiceBusyError, FrameError, ConnectionError, OSError) as exc:
                _close_quietly(sock)
                last_error = exc
        raise TransportError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.connect_retries} attempts: {last_error}"
        ) from last_error

    def close(self) -> None:
        """Say goodbye (best-effort) and drop the connection."""
        sock, self._sock = self._sock, None
        self._protocol = PROTOCOL_VERSION
        self._codec = None
        if sock is None:
            return
        try:
            send_frame(sock, {"op": "goodbye"}, self.max_frame_bytes)
            recv_frame(sock, self.max_frame_bytes)
        except (FrameError, ConnectionError, OSError):
            pass
        finally:
            _close_quietly(sock)

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._protocol = PROTOCOL_VERSION
        self._codec = None
        _close_quietly(sock)

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self.connected else "disconnected"
        return f"ServiceClient({self.host}:{self.port}, {state})"

    # ------------------------------------------------------------------ #
    # Request round trips
    # ------------------------------------------------------------------ #
    def call(self, request: Dict[str, object]) -> Dict[str, object]:
        """Send one request, return the raw response payload.

        Connection drops are retried once for idempotent ops when
        ``reconnect`` is enabled; server-side failures come back as
        ``ok = false`` payloads without raising (use :meth:`request` for
        the raising variant).

        When the calling thread is inside a *sampled* trace, the request
        is stamped with the wire context (``trace`` field) so the server
        joins the same trace; servers that predate tracing ignore the
        extra key.
        """
        op = op_name(request)
        with self._tracer.start_span(f"client.{op or 'unknown'}") as span:
            if span.recording and "trace" not in request:
                ctx = self._tracer.wire_context()
                if ctx is not None:
                    request = dict(request)
                    request["trace"] = ctx
            return self._call(request)

    def _call(self, request: Dict[str, object]) -> Dict[str, object]:
        retryable = self.reconnect and _is_idempotent(request)
        try:
            return self._roundtrip(request)
        except (FrameError, ConnectionError, OSError) as exc:
            self._drop_connection()
            if not retryable:
                raise TransportError(
                    f"connection to {self.host}:{self.port} failed mid-request "
                    f"({exc}); op {request.get('op')!r} is not idempotent, so "
                    "its fate on the server is unknown"
                ) from exc
            try:
                self.connect()
            except TransportError:
                # Already typed: exhausted retries, or a handshake
                # rejection (ProtocolVersionError / RemoteServiceError)
                # that a retry cannot fix.
                raise
            except OSError as connect_exc:  # pragma: no cover - belt and braces
                self._drop_connection()
                raise TransportError(
                    f"reconnect to {self.host}:{self.port} failed: {connect_exc}"
                ) from connect_exc
            try:
                return self._roundtrip(request)
            except (FrameError, ConnectionError, OSError) as retry_exc:
                self._drop_connection()
                raise TransportError(
                    f"request to {self.host}:{self.port} failed again after "
                    f"a reconnect: {retry_exc}"
                ) from retry_exc

    def request(self, request: Dict[str, object]) -> Dict[str, object]:
        """Like :meth:`call`, but failures raise :class:`RemoteServiceError`."""
        response = self.call(request)
        if not response.get("ok"):
            raise RemoteServiceError(
                str(response.get("error", "request failed")),
                code=str(response.get("code", "internal")),
                response=response,
            )
        return response

    def _roundtrip(self, request: Dict[str, object]) -> Dict[str, object]:
        if self._sock is None:
            self.connect()
        send_frame(self._sock, dict(request), self.max_frame_bytes)
        response = recv_frame(self._sock, self.max_frame_bytes)
        if response is None:
            raise TruncatedFrameError("server closed the connection")
        return response

    # ------------------------------------------------------------------ #
    # Typed helpers (the QueryService.serve vocabulary)
    # ------------------------------------------------------------------ #
    def _use_columns(self) -> bool:
        """Whether to ask for columnar (binary-frame) query responses."""
        if self._sock is None:
            self.connect()
        return self._protocol >= PROTOCOL_VERSION_BINARY

    def metric(self, s: int, metric: str = "connected_components") -> Dict[int, float]:
        """Metric values keyed by original hyperedge ID.

        On a protocol v2 connection the response crosses the wire as
        parallel ``edge_ids``/``values`` numpy columns in a binary frame
        and is rebuilt into the same mapping here, so callers never see
        the difference.
        """
        request: Dict[str, object] = {"op": "metric", "s": int(s), "metric": str(metric)}
        if self._use_columns():
            request["columns"] = True
        response = self.request(request)
        if response.get("columns"):
            ids = response["edge_ids"]
            vals = response["values"]
            return dict(zip(ids.tolist(), vals.tolist()))
        return {int(k): float(v) for k, v in response["values"].items()}

    def components(self, s: int) -> int:
        """Number of s-connected components."""
        return int(self.request({"op": "components", "s": int(s)})["count"])

    def sweep(
        self,
        s_values: Optional[Iterable[int]] = None,
        s_min: int = 1,
        s_max: Optional[int] = None,
        metrics: Sequence[str] = (),
    ) -> Dict[str, Dict[int, int]]:
        """Batched multi-s sweep; counts keyed by integer s.

        Like :meth:`metric`, a v2 connection carries the counts as int64
        columns (``s_values``/``edge_counts``/``active_counts``) and the
        mapping shape is rebuilt here.
        """
        request: Dict[str, object] = {"op": "sweep", "metrics": list(metrics)}
        if s_values is not None:
            request["s_values"] = [int(s) for s in s_values]
        else:
            if s_max is None:
                raise ValueError("sweep needs s_values or s_max")
            request.update(s_min=int(s_min), s_max=int(s_max))
        if self._use_columns():
            request["columns"] = True
        response = self.request(request)
        if response.get("columns"):
            svals = response["s_values"].tolist()
            return {
                "edge_counts": dict(zip(svals, response["edge_counts"].tolist())),
                "active_counts": dict(zip(svals, response["active_counts"].tolist())),
            }
        return {
            "edge_counts": {int(s): int(n) for s, n in response["edge_counts"].items()},
            "active_counts": {
                int(s): int(n) for s, n in response["active_counts"].items()
            },
        }

    def batch(self, requests: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        """Serve many requests in one round trip (server-side fan-out)."""
        response = self.request({"op": "batch", "requests": list(requests)})
        return list(response["results"])

    def add(
        self,
        members: Iterable[int],
        name: Optional[object] = None,
        wait: bool = True,
    ) -> Optional[int]:
        """Submit a hyperedge add; with ``wait`` (default) the returned
        edge ID doubles as the durability acknowledgement."""
        request: Dict[str, object] = {
            "op": "add",
            "members": [int(v) for v in members],
            "wait": bool(wait),
        }
        if name is not None:
            request["name"] = name
        response = self.request(request)
        return int(response["edge_id"]) if wait else None

    def remove(self, edge_id: int, wait: bool = True) -> bool:
        """Submit a hyperedge remove; with ``wait`` the response is the ack."""
        response = self.request(
            {"op": "remove", "edge_id": int(edge_id), "wait": bool(wait)}
        )
        return bool(response.get("removed", response.get("queued")))

    def flush(self) -> None:
        """Block until every previously submitted update is durable."""
        self.request({"op": "flush"})

    def compact(self) -> int:
        """Fold the WAL into a new snapshot; returns the new generation."""
        return int(self.request({"op": "compact"})["generation"])

    def stats(self) -> Dict[str, object]:
        """The server's :meth:`QueryService.stats` payload."""
        return dict(self.request({"op": "stats"})["stats"])

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return str(self.request({"op": "metrics"})["text"])

    def traces(
        self, trace_id: Optional[str] = None, limit: int = 20
    ) -> List[Dict[str, object]]:
        """Finished traces from the server's ring, oldest first.

        ``trace_id`` filters to one trace; ``limit`` keeps the newest N
        after filtering.
        """
        request: Dict[str, object] = {"op": "trace", "limit": int(limit)}
        if trace_id is not None:
            request["trace_id"] = str(trace_id)
        return list(self.request(request)["traces"])

    def generation(self) -> int:
        """Snapshot generation currently served by the peer."""
        return int(self.stats()["generation"])

    def fingerprint(self) -> str:
        """Fingerprint of the hypergraph currently served by the peer."""
        return str(self.stats()["fingerprint"])

    def state_token(self) -> Optional[tuple]:
        """The peer store's ``(generation, WAL bytes)`` change token."""
        token = self.stats().get("state_token")
        return None if token is None else tuple(int(v) for v in token)

    def poll_state_token(self) -> Optional[tuple]:
        """:meth:`state_token` for pollers that bring their own retry
        schedule: a dead connection is re-dialled once, not
        ``connect_retries`` times, so a down peer costs one refused connect."""
        budget, self.connect_retries = self.connect_retries, 1
        try:
            return self.state_token()
        finally:
            self.connect_retries = budget

    # ------------------------------------------------------------------ #
    # Replication (the StoreMirror source interface — see
    # repro.store.replication; a connected client IS a ReplicationSource)
    # ------------------------------------------------------------------ #
    def _repl_request(self, request: Dict[str, object]) -> Dict[str, object]:
        try:
            return self.request(request)
        except RemoteServiceError as exc:
            if exc.code == E_STALE:
                # Typed for the mirror: restart the sync from a fresh
                # manifest instead of treating this as a server fault.
                raise ReplicationStaleError(str(exc)) from exc
            raise

    def repl_manifest(self) -> Dict[str, object]:
        """The peer's live manifest text plus per-file checksums."""
        return dict(self._repl_request({"op": "repl_manifest"}))

    def _require_replication_protocol(self) -> None:
        """Refuse, before anything is sent, to follow over a v1 connection."""
        if not self._use_columns():
            raise ProtocolVersionError(
                f"replication needs protocol {PROTOCOL_VERSION_BINARY}; the "
                f"connection to {self.host}:{self.port} negotiated "
                f"{self._protocol}"
            )

    def repl_wal_suffix(
        self, generation: int, after_bytes: int, next_seq: int
    ) -> Dict[str, object]:
        """Raw WAL suffix after a ``(generation, byte_offset)`` cursor.

        ``data`` is the source log's on-disk bytes after ``after_bytes``
        (validated from sequence ``next_seq``), ridden raw over a binary
        frame, plus the advanced cursor (``count``/``next_seq``/
        ``end_offset``) — or ``rebase=True`` when the source log shrank
        under the cursor.  Raises :class:`ProtocolVersionError` on a
        connection that negotiated a protocol below 2.
        """
        self._require_replication_protocol()
        return self._repl_request(
            {
                "op": "repl_wal",
                "generation": int(generation),
                "after_bytes": int(after_bytes),
                "next_seq": int(next_seq),
                "raw": True,
            }
        )

    def repl_fetch(
        self, name: str, generation: int, offset: int, length: int
    ) -> Dict[str, object]:
        """One chunk of one snapshot file; ``response["data"]`` is ``bytes``.

        The chunk rides a binary frame raw (optionally compressed per the
        negotiated codec, decompressed by the framing layer).  Raises
        :class:`ProtocolVersionError` on a connection that negotiated a
        protocol below 2.
        """
        self._require_replication_protocol()
        return self._repl_request(
            {
                "op": "repl_fetch",
                "file": str(name),
                "generation": int(generation),
                "offset": int(offset),
                "length": int(length),
                "raw": True,
            }
        )

"""Network transport: the serving layer's wire protocol, server and client.

PR 3 made one store serveable by many processes on one machine; this
package puts a socket in front of it so the clients can live anywhere:

* :mod:`repro.service.transport.framing` — the wire codec of
  ``docs/PROTOCOL.md``: length-prefixed JSON frames (v1), binary frames
  carrying numpy columns / raw replication bytes (v2), request/response
  envelopes with machine-readable error codes, and the version-negotiating
  handshake;
* :class:`SocketServer` — a threaded server fronting one
  :class:`~repro.service.QueryService` (writer or read replica): version
  handshake, per-connection pipelining, ``batch`` fan-out over the
  service's worker threads, explicit ``busy`` backpressure past the
  connection limit, graceful drain-then-close shutdown;
* :class:`ServiceClient` — a blocking client with connect/retry, batched
  query submission and durability-ack-aware update calls; its ``metric``
  returns :class:`HyperedgeValues`, a read-only ``{edge_id: value}``
  mapping over the response's two columns.
"""

from repro.service.transport.client import HyperedgeValues, ServiceClient
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_BINARY,
    SUPPORTED_PROTOCOLS,
    FrameError,
    FrameTooLargeError,
    ProtocolVersionError,
    RemoteServiceError,
    ServiceBusyError,
    TransportError,
    TruncatedFrameError,
)
from repro.service.transport.server import ServerStats, SocketServer

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_BINARY",
    "SUPPORTED_PROTOCOLS",
    "FrameError",
    "FrameTooLargeError",
    "HyperedgeValues",
    "ProtocolVersionError",
    "RemoteServiceError",
    "ServerStats",
    "ServiceBusyError",
    "ServiceClient",
    "SocketServer",
    "TransportError",
    "TruncatedFrameError",
]

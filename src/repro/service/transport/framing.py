"""Wire framing for the serving protocol: JSON control plane, binary data plane.

This module implements the frame layer specified normatively in
``docs/PROTOCOL.md`` — the byte layouts, the hello/version-negotiation
state machine, and the op and error-code tables all live there (their
code-side declaration is :mod:`repro.service.contract`); the docstrings
below are a summary, the spec is the source of truth.

A connection is a bidirectional stream of *frames*.  Every frame starts
with a 4-byte big-endian unsigned length prefix.  With the high bit clear
the frame is a **v1 (JSON) frame** — the prefix is followed by that many
bytes of UTF-8 JSON encoding one object::

    +----------------+-------------------------------+
    | length (>I, 4B)| payload (length bytes, JSON)  |
    +----------------+-------------------------------+

With the high bit set (:data:`BINARY_FLAG`; only legal after both peers
negotiated protocol 2) the low 31 bits give the body length of a
**binary frame**: a 4-byte header length, a UTF-8 JSON header, then the
concatenated raw payload sections the header describes::

    +----------------+----------------+-----------+------------------+
    | 0x8000_0000|len| hdr_len (>I,4B)| header    | sections (raw)   |
    +----------------+----------------+-----------+------------------+

The header is the response payload with every bulk value (``bytes`` or a
``numpy`` array) replaced by a ``{"__sec__": i}`` placeholder, plus a
``sections`` table carrying each section's dtype/shape/length.  Sections
travel raw, never compressed.  Decoding splices the sections back in
place, so both frame kinds decode to the same request/response mappings
of :meth:`repro.service.QueryService.serve`.

Transport-level ops (see ``docs/PROTOCOL.md`` for payload shapes):

``hello``
    The mandatory first frame of every connection (both directions).  The
    baseline field is ``{"op": "hello", "protocol": 1}``; peers that speak
    more advertise it with ``"protocols": [1, 2]``, and both sides settle
    on ``max(common versions)`` (see :func:`negotiate_protocol`).  A
    v1-only peer ignores the extra keys and is answered in plain v1 —
    compatibility holds in both directions.  A version bump is required
    for any change an older peer cannot ignore; new *optional*
    hello/response fields do not bump it (mirroring the store's
    format-version policy).
``batch``
    ``{"op": "batch", "requests": [...]}`` — the server serves the whole
    list through one :meth:`QueryService.serve` call (worker-thread
    fan-out) and answers ``{"ok": true, "results": [...]}`` in order.
``goodbye``
    Graceful connection teardown: the server acknowledges, then closes.

Failure responses carry ``ok = false``, a human-readable ``error`` and a
machine-readable ``code`` (the ``E_*`` constants of
:mod:`repro.service.contract`), so clients can distinguish "retry later"
(``busy``) from "fix the request" (``bad_request``) from "talk to the
writer" (``read_only``).

Framing errors are symmetric: a reader that hits end-of-stream *inside* a
frame raises :class:`TruncatedFrameError`; a declared length above the
reader's ``max_frame_bytes`` raises :class:`FrameTooLargeError` before any
payload is read, so an adversarial or buggy peer cannot make the reader
allocate unbounded memory.  A corrupt binary frame raises
:class:`FrameError` after the body is read — the server answers it with a
``bad_frame`` error and drops only that connection.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.contract import E_BUSY, E_INTERNAL, E_PROTOCOL

#: The baseline protocol every peer must speak; also the value of the
#: mandatory ``protocol`` hello field (kept at 1 forever so pre-negotiation
#: peers' strict equality checks keep passing — see docs/PROTOCOL.md).
PROTOCOL_VERSION = 1

#: Protocol 2: the binary data plane (binary frames, columnar responses,
#: raw replication payloads).
PROTOCOL_VERSION_BINARY = 2

#: Every protocol version this build can speak, ascending.
SUPPORTED_PROTOCOLS: Tuple[int, ...] = (1, 2)

#: 4-byte big-endian unsigned frame length.
LENGTH_PREFIX = struct.Struct(">I")

#: High bit of the length prefix: set on binary (protocol >= 2) frames.
BINARY_FLAG = 0x80000000

#: Default cap on a single frame (either direction).  Large enough for a
#: full metric map over hundreds of thousands of hyperedges, small enough
#: to bound what a misbehaving peer can make us buffer.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(Exception):
    """Base error for the socket transport layer."""


class FrameError(TransportError):
    """A frame could not be encoded, decoded or transferred."""


class FrameTooLargeError(FrameError):
    """A frame's declared length exceeds the reader's ``max_frame_bytes``."""


class TruncatedFrameError(FrameError):
    """The stream ended (or the peer vanished) mid-frame."""


class ProtocolVersionError(TransportError):
    """The peers speak incompatible protocol versions."""


class ServiceBusyError(TransportError):
    """The server refused the connection: at its connection limit."""


class RemoteServiceError(TransportError):
    """The server answered a request with ``ok = false``.

    Attributes
    ----------
    code:
        The machine-readable ``E_*`` error code (``E_INTERNAL`` when the
        server did not supply one).
    response:
        The full response payload, for callers that need more context.
    """

    def __init__(
        self,
        message: str,
        code: str = E_INTERNAL,
        response: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.response = dict(response or {})


# --------------------------------------------------------------------- #
# Encoding / decoding — v1 (JSON) frames
# --------------------------------------------------------------------- #
def encode_frame(payload: Dict[str, object], max_frame_bytes: int) -> bytes:
    """Serialise one payload to a length-prefixed JSON (v1) frame."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"payload is not JSON-serialisable: {exc}") from exc
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, object]:
    """Parse a JSON frame body; every frame must encode one JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame must encode a JSON object, got {type(payload).__name__}"
        )
    return payload


# --------------------------------------------------------------------- #
# Encoding / decoding — binary (protocol 2) frames
# --------------------------------------------------------------------- #
def _is_section_value(value: object) -> bool:
    return isinstance(value, (bytes, bytearray, memoryview, np.ndarray))


def payload_has_sections(payload: object) -> bool:
    """Whether a payload holds bulk values only a binary frame can carry."""
    if _is_section_value(payload):
        return True
    if isinstance(payload, dict):
        return any(payload_has_sections(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(payload_has_sections(v) for v in payload)
    return False


def _extract_sections(value: object, sections: List[object]) -> object:
    """Replace bulk leaves with placeholders, collecting them in order."""
    if _is_section_value(value):
        sections.append(value)
        return {"__sec__": len(sections) - 1}
    if isinstance(value, dict):
        return {k: _extract_sections(v, sections) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_extract_sections(v, sections) for v in value]
    return value


def _splice_sections(value: object, sections: List[object]) -> object:
    """Reverse :func:`_extract_sections` after the sections are decoded."""
    if isinstance(value, dict):
        if set(value.keys()) == {"__sec__"}:
            index = value["__sec__"]
            if not isinstance(index, int) or not 0 <= index < len(sections):
                raise FrameError(f"binary frame references unknown section {index!r}")
            return sections[index]
        return {k: _splice_sections(v, sections) for k, v in value.items()}
    if isinstance(value, list):
        return [_splice_sections(v, sections) for v in value]
    return value


def encode_binary_frame(payload: Dict[str, object], max_frame_bytes: int) -> bytes:
    """Serialise one payload to a binary (protocol 2) frame.

    Bulk values — ``bytes``-likes and ``numpy`` arrays, found anywhere in
    the payload — travel as raw sections after the JSON header instead of
    being JSON/base64-encoded.  Arrays are shipped as their native little-
    endian buffers (dtype and shape in the header), ``bytes`` as they are.
    No section is compressed.  See docs/PROTOCOL.md §4.
    """
    raw_sections: List[object] = []
    header_payload = _extract_sections(dict(payload), raw_sections)
    sections: List[Dict[str, object]] = []
    bodies: List[bytes] = []
    for value in raw_sections:
        meta: Dict[str, object] = {}
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            if array.dtype.hasobject:
                raise FrameError(
                    f"object-dtype array {array.dtype} cannot travel in a "
                    "binary frame"
                )
            dtype = array.dtype.newbyteorder("<")
            body = array.astype(dtype, copy=False).tobytes()
            meta["dtype"] = dtype.str
            meta["shape"] = list(array.shape)
        else:
            body = bytes(value)
            meta["dtype"] = "bytes"
        meta["len"] = len(body)
        sections.append(meta)
        bodies.append(body)
    header_obj = {"payload": header_payload, "sections": sections}
    try:
        header = json.dumps(header_obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"payload is not binary-frame-serialisable: {exc}") from exc
    body_len = LENGTH_PREFIX.size + len(header) + sum(len(b) for b in bodies)
    if body_len > max_frame_bytes:
        raise FrameTooLargeError(
            f"binary frame of {body_len} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    return b"".join(
        [LENGTH_PREFIX.pack(BINARY_FLAG | body_len), LENGTH_PREFIX.pack(len(header)), header]
        + bodies
    )


def decode_binary_frame(body: bytes, max_frame_bytes: int) -> Dict[str, object]:
    """Parse a binary frame body (everything after the length prefix).

    Each section is a slice of ``body`` and no section is inflated, so
    decoding allocates at most one more frame's worth of bytes.
    """
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"binary frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    if len(body) < LENGTH_PREFIX.size:
        raise FrameError("binary frame too short for its header length")
    (header_len,) = LENGTH_PREFIX.unpack_from(body)
    header_end = LENGTH_PREFIX.size + header_len
    if header_len > len(body) - LENGTH_PREFIX.size:
        raise FrameError(
            f"binary frame header declares {header_len} bytes, only "
            f"{len(body) - LENGTH_PREFIX.size} present"
        )
    header = decode_payload(body[LENGTH_PREFIX.size : header_end])
    sections_meta = header.get("sections")
    payload = header.get("payload")
    if not isinstance(sections_meta, list) or not isinstance(payload, dict):
        raise FrameError("binary frame header must carry 'payload' and 'sections'")
    sections: List[object] = []
    offset = header_end
    for meta in sections_meta:
        if not isinstance(meta, dict):
            raise FrameError("binary frame section metadata must be objects")
        if "codec" in meta:
            raise FrameError(
                f"binary section declares codec {meta['codec']!r}; sections "
                "travel raw"
            )
        try:
            length = int(meta["len"])
            # Builds that could compress also sent `ulen`, the raw length;
            # on a raw section it equals `len`.
            ulen = int(meta.get("ulen", length))
            dtype = str(meta.get("dtype", "bytes"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(f"malformed binary section metadata: {exc}") from exc
        if ulen != length:
            raise FrameError(
                f"binary section carries {length} bytes, header declared {ulen}"
            )
        if length < 0 or offset + length > len(body):
            raise FrameError(
                f"binary section of {length} bytes overruns the frame body"
            )
        chunk = body[offset : offset + length]
        offset += length
        if dtype == "bytes":
            sections.append(chunk)
        else:
            try:
                shape = tuple(int(d) for d in meta.get("shape", [len(chunk)]))
                array = np.frombuffer(chunk, dtype=np.dtype(dtype)).reshape(shape)
            except (TypeError, ValueError) as exc:
                raise FrameError(f"malformed binary array section: {exc}") from exc
            sections.append(array)
    if offset != len(body):
        raise FrameError(
            f"binary frame carries {len(body) - offset} trailing bytes its "
            "header does not describe"
        )
    return _splice_sections(payload, sections)


# --------------------------------------------------------------------- #
# Socket I/O
# --------------------------------------------------------------------- #
def recv_exact(
    sock: socket.socket,
    num_bytes: int,
    at_boundary: bool,
    on_timeout=None,
) -> Optional[bytes]:
    """Read exactly ``num_bytes`` from a blocking socket.

    Returns ``None`` on a clean end-of-stream when ``at_boundary`` is true
    and no bytes of the frame were read yet; raises
    :class:`TruncatedFrameError` if the stream ends anywhere else.

    A socket timeout is treated like a lost connection.  ``on_timeout``
    makes a timeout loop interruptible instead: called with ``partial``
    (were any bytes of this read received yet?) after every timeout;
    return ``False`` to keep waiting, ``True`` to give up — which is a
    clean ``None`` at an idle frame boundary and a
    :class:`TruncatedFrameError` mid-frame.  No caller in this package
    passes it; ``benchmarks/e2e/traced_serve.py`` wraps this function with
    its four-argument signature.
    """
    buffer = bytearray()
    while len(buffer) < num_bytes:
        try:
            chunk = sock.recv(num_bytes - len(buffer))
        except socket.timeout as exc:
            if on_timeout is None:
                raise TruncatedFrameError(f"timed out mid-frame: {exc}") from exc
            if on_timeout(bool(buffer) or not at_boundary):
                if at_boundary and not buffer:
                    return None
                raise TruncatedFrameError(
                    "reader stopped while a frame was in flight"
                ) from exc
            continue
        except (ConnectionError, OSError) as exc:
            raise TruncatedFrameError(f"connection lost mid-frame: {exc}") from exc
        if not chunk:
            if at_boundary and not buffer:
                return None
            raise TruncatedFrameError(
                f"stream ended after {len(buffer)} of {num_bytes} expected bytes"
            )
        buffer.extend(chunk)
    return bytes(buffer)


def send_frame(
    sock: socket.socket,
    payload: Dict[str, object],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Encode and send one JSON (v1) frame."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Dict[str, object]]:
    """Receive one frame (JSON or binary); ``None`` on clean end-of-stream.

    The high bit of the length prefix selects the decoder, so a reader
    needs no out-of-band state — but a peer must only *send* binary frames
    after protocol 2 was negotiated (docs/PROTOCOL.md §3).
    """
    header = recv_exact(sock, LENGTH_PREFIX.size, at_boundary=True)
    if header is None:
        return None
    (length,) = LENGTH_PREFIX.unpack(header)
    binary = bool(length & BINARY_FLAG)
    length &= ~BINARY_FLAG
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame; this side caps frames "
            f"at {max_frame_bytes} bytes"
        )
    if length:
        body = recv_exact(sock, length, at_boundary=False)
    else:
        body = b""
    if binary:
        return decode_binary_frame(body, max_frame_bytes)
    return decode_payload(body)


# --------------------------------------------------------------------- #
# Handshake payloads (the negotiation state machine of docs/PROTOCOL.md)
# --------------------------------------------------------------------- #
def hello_request() -> Dict[str, object]:
    """The client's mandatory first frame (baseline shape, see module doc).

    Callers that can speak more than the baseline add the optional
    ``protocols`` key on top (the client does; a pre-negotiation server
    simply ignores it).
    """
    return {"op": "hello", "protocol": PROTOCOL_VERSION}


def negotiate_protocol(
    peer_protocols: Optional[Sequence[object]],
    supported: Sequence[int] = SUPPORTED_PROTOCOLS,
) -> int:
    """``max(common versions)`` between ``supported`` and a peer's hello.

    ``peer_protocols`` is the optional ``protocols`` list of the peer's
    hello (or hello response); a peer that omitted it speaks only the
    baseline.  ``supported`` defaults to everything this build speaks; a
    version-pinned server/client passes a truncated tuple.  The baseline
    is always shared — the mandatory ``protocol`` field was already
    checked — so the result is at least :data:`PROTOCOL_VERSION`.
    """
    if not peer_protocols:
        return PROTOCOL_VERSION
    offered = set()
    for version in peer_protocols:
        try:
            offered.add(int(version))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    common = offered & set(supported)
    common.add(PROTOCOL_VERSION)
    return max(common)


def check_hello_response(response: Dict[str, object]) -> Dict[str, object]:
    """Validate the server's handshake reply; raise on rejection.

    Accepts both a pre-negotiation reply (bare ``protocol``) and a
    negotiated one (``negotiated``); the caller reads
    ``response.get("negotiated", 1)`` for the settled version.
    """
    if response.get("ok") and response.get("op") == "hello":
        if response.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolVersionError(
                f"server speaks protocol {response.get('protocol')}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        return response
    code = str(response.get("code", E_INTERNAL))
    message = str(response.get("error", "handshake rejected"))
    if code == E_BUSY:
        raise ServiceBusyError(message)
    if code == E_PROTOCOL:
        raise ProtocolVersionError(message)
    raise RemoteServiceError(message, code=code, response=response)

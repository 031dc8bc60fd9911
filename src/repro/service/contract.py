"""The wire contract, declared once: service ops and error codes.

Everything that must agree about the serving vocabulary derives from the
two tables in this module instead of keeping a copy of its own:

* :data:`OPS` — one row per service op.  :class:`QueryService` binds one
  ``_op_<name>`` handler per row through :func:`bind_handlers` (a missing
  or surplus handler fails when the class is defined) and lists the rows
  in its unknown-op message, :class:`ServiceClient` auto-retries exactly the
  rows flagged ``idempotent``, the socket server labels its per-op
  metrics with the row names, and the CLI's JSONL loop fans out exactly
  the rows flagged ``fanout_read``.
* :data:`ERROR_CODES` — exception class -> ``E_*`` code.
  :func:`error_code` resolves along the exception's MRO, so a subclass
  answers with its nearest listed ancestor's code and row order cannot
  shadow anything.

``docs/PROTOCOL.md`` §3 and §5 print both tables; ``tools/check_docs.py``
compares them with the rows imported from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from repro.store.format import ReadOnlyStoreError, StoreError
from repro.store.replication import ReplicationStaleError
from repro.utils.validation import ValidationError

# --------------------------------------------------------------------- #
# Error codes (the ``code`` field of failure responses)
# --------------------------------------------------------------------- #
E_PROTOCOL = "protocol_mismatch"  #: handshake version/shape not accepted
E_BAD_FRAME = "bad_frame"  #: unparseable or oversized frame
E_BAD_REQUEST = "bad_request"  #: well-formed frame, invalid request
E_READ_ONLY = "read_only"  #: write sent to a read-only replica server
E_BUSY = "busy"  #: connection limit reached — retry later
E_UNAVAILABLE = "unavailable"  #: server is shutting down / store error
E_STALE = "stale_generation"  #: replication op pinned a superseded generation
E_INTERNAL = "internal"  #: unexpected server-side failure

#: Exception class -> code for failures raised while serving a request.
#: Anything with no listed ancestor is :data:`E_INTERNAL`.
ERROR_CODES: Dict[type, str] = {
    ReplicationStaleError: E_STALE,
    ReadOnlyStoreError: E_READ_ONLY,
    StoreError: E_UNAVAILABLE,
    ValidationError: E_BAD_REQUEST,
    KeyError: E_BAD_REQUEST,
    TypeError: E_BAD_REQUEST,
    ValueError: E_BAD_REQUEST,
}


def error_code(exc: BaseException) -> str:
    """The ``E_*`` code of ``exc``: its most-derived listed class wins."""
    for cls in type(exc).__mro__:
        code = ERROR_CODES.get(cls)
        if code is not None:
            return code
    return E_INTERNAL


# --------------------------------------------------------------------- #
# Service ops
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Op:
    """One service op.  Both flags are required: a new op is an explicit
    decision on each, never a default."""

    name: str
    #: A client may transparently re-send it after a reconnect.  Pure
    #: reads only — the replication ops read pinned-generation state, so a
    #: re-send cannot observe (let alone apply) anything twice.  Mutations
    #: and durability barriers are never re-sent: a connection lost after
    #: sending one loses the reply, and the caller, not the transport,
    #: decides between at-least-once and giving up.
    idempotent: bool
    #: A cheap read that the JSONL loops buffer and serve as one batch
    #: across worker threads.
    fanout_read: bool


OPS: Tuple[Op, ...] = (
    Op("metric", idempotent=True, fanout_read=True),
    Op("components", idempotent=True, fanout_read=True),
    Op("sweep", idempotent=True, fanout_read=True),
    Op("add", idempotent=False, fanout_read=False),
    Op("remove", idempotent=False, fanout_read=False),
    Op("flush", idempotent=False, fanout_read=False),
    Op("compact", idempotent=False, fanout_read=False),
    Op("stats", idempotent=True, fanout_read=True),
    Op("metrics", idempotent=True, fanout_read=True),
    Op("trace", idempotent=True, fanout_read=True),
    Op("repl_manifest", idempotent=True, fanout_read=False),
    Op("repl_wal", idempotent=True, fanout_read=False),
    Op("repl_fetch", idempotent=True, fanout_read=False),
    Op("chaos", idempotent=False, fanout_read=False),
)
_OP_BY_NAME: Dict[str, Op] = {op.name: op for op in OPS}
if len(_OP_BY_NAME) != len(OPS):
    raise TypeError("contract.OPS names an op twice")

#: Row names in declaration order (the per-op metric label vocabulary).
OP_NAMES: Tuple[str, ...] = tuple(_OP_BY_NAME)

_HANDLER_PREFIX = "_op_"


def op_name(request: Mapping[str, object]) -> str:
    """A request's op as a string — the one normaliser every membership
    test goes through, so a list- or object-valued ``op`` is an unknown
    name, never an unhashable lookup key."""
    return str(request.get("op", ""))


def is_idempotent(name: str) -> bool:
    """Whether ``name`` is a service op a client may auto-retry."""
    op = _OP_BY_NAME.get(name)
    return op is not None and op.idempotent


def is_fanout_read(name: str) -> bool:
    """Whether ``name`` is a service op the JSONL loops may batch."""
    op = _OP_BY_NAME.get(name)
    return op is not None and op.fanout_read


def bind_handlers(cls: type) -> type:
    """Class decorator: ``cls._handlers = {op name: cls._op_<name>}``.

    Raises :class:`TypeError` — while the class is being defined — when a
    row of :data:`OPS` has no ``_op_<name>`` method or a method has no row.
    """
    found: Dict[str, Callable] = {
        attr[len(_HANDLER_PREFIX) :]: getattr(cls, attr)
        for attr in dir(cls)
        if attr.startswith(_HANDLER_PREFIX)
    }
    if found.keys() != _OP_BY_NAME.keys():
        raise TypeError(
            f"{cls.__name__} handlers do not match contract.OPS: missing "
            f"{sorted(_OP_BY_NAME.keys() - found.keys())}, without a row "
            f"{sorted(found.keys() - _OP_BY_NAME.keys())}"
        )
    cls._handlers = {name: found[name] for name in OP_NAMES}
    return cls

"""Named failpoints: deterministic fault injection for the serving stack.

A *failpoint* is a declared :class:`Failpoint` handle whose hook is
compiled into a hot path (``WAL_APPEND.fire()``) and normally does
nothing.  When a test — or the chaos harness driving live subprocesses —
*activates* the point by name, the next pass through the hook performs one
of four actions:

``error``
    Raise :class:`FailpointError`, an ``OSError`` subclass, so existing
    durability paths (WAL rollback, admission-queue poisoning, transport
    error classification) handle the injected fault exactly like a real
    disk or kernel failure.  The optional value is the errno to carry
    (default ``EIO``; use ``28`` for an ENOSPC).
``crash``
    ``os._exit(value)`` — the process dies *now*, mid-syscall-sequence,
    with no atexit/finally cleanup: the closest a test can get to
    SIGKILL while staying deterministic about *where* the kill lands.
``delay``
    Sleep ``value`` milliseconds — turns a fast path into a slow one so
    races, timeouts and backpressure paths become reachable.
``drop``
    Raise :class:`FailpointDropConnection`, a ``ConnectionError``
    subclass, which the transport layer answers by dropping the client.

Activation has two routes.  In-process: :func:`activate`.  Cross-process:
the ``REPRO_FAILPOINTS`` environment variable, parsed when this module is
first imported — so spawn-based subprocesses (``multiprocessing``
``spawn`` context, ``subprocess`` CLI children) inherit active points
from their parent's environment with no extra plumbing.  The grammar is::

    REPRO_FAILPOINTS="name=action[:value][*count];name2=action2..."

e.g. ``wal.append=error:28*1;transport.send=delay:50`` — fail the next
WAL append with ENOSPC once, and delay every response frame by 50 ms.

The disabled path mirrors the ``NullRegistry`` / no-op-span idiom: with
no point active anywhere, :meth:`Failpoint.fire` is one module-global
boolean read and a return — cheap enough to ride inside the
``obs_overhead`` CI floor (see ``benchmarks/bench_obs_overhead.py``).
Hits are counted on the per-process metrics registry as
``chaos_failpoint_hits_total{point}``.
"""

from __future__ import annotations

import errno as _errno
import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs import get_registry

__all__ = [
    "ACTIONS",
    "CATALOGUE",
    "Failpoint",
    "FailpointDropConnection",
    "FailpointError",
    "activate",
    "active",
    "deactivate",
    "env_spec",
    "hits",
    "install_from_env",
    "is_active",
    "parse_spec",
    "remote_control_enabled",
    "reset",
]

#: Environment variable carrying failpoint specs into child processes.
ENV_VAR = "REPRO_FAILPOINTS"
#: Environment variable gating the remote ``chaos`` wire op (see
#: :meth:`repro.service.QueryService` — a live server only honours
#: failpoint control frames when launched with this set, so production
#: deployments cannot be chaos-injected over the wire by accident).
CONTROL_ENV_VAR = "REPRO_CHAOS"

ACTIONS = ("error", "crash", "delay", "drop")

#: Every declared failpoint, ``name -> doc``, for docs / CLI listing /
#: typo protection at activation time.  Filled by :class:`Failpoint`, so
#: it lists exactly the handles below and cannot drift from them.
CATALOGUE: Dict[str, str] = {}


class Failpoint:
    """A declared failpoint: the handle a call site imports and fires.

    A call site names its point by importing the handle, so a misspelt
    point is an ``ImportError`` when the module loads, never a hook that
    silently injects nothing.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, doc: str) -> None:
        if name in CATALOGUE:
            raise ValueError(f"failpoint '{name}' declared twice")
        self.name = name
        CATALOGUE[name] = doc

    def fire(self) -> None:
        """Hot-path hook: no-op unless this point has been activated."""
        if not _armed:
            return
        armed = _points.get(self.name)
        if armed is not None:
            armed.trigger()


WAL_APPEND = Failpoint("wal.append", "WAL record append, before the write hits the file")
WAL_FSYNC = Failpoint("wal.fsync", "WAL batch fsync — the group-commit durability point")
STORE_COMPACT_FOLD = Failpoint(
    "store.compact.fold", "compaction, after reading live records, before the new snapshot"
)
STORE_COMPACT_INSTALL = Failpoint(
    "store.compact.install", "compaction, before the manifest atomically swaps generations"
)
STORE_SHARD_LOAD = Failpoint(
    "store.shard_load", "shard fault-in (lazy load of a non-resident shard)"
)
ADMISSION_COMMIT = Failpoint(
    "admission.commit", "admission group commit, inside the durability scope"
)
TRANSPORT_RECV = Failpoint("transport.recv", "server side, after a request frame is read")
TRANSPORT_SEND = Failpoint("transport.send", "server side, before a response frame is written")
REPL_MANIFEST = Failpoint("repl.manifest", "replication manifest build (the repl_manifest op)")
REPL_WAL = Failpoint("repl.wal", "replication WAL-tail build (the repl_wal op)")
REPL_FETCH = Failpoint("repl.fetch", "replication chunk fetch (the repl_fetch op)")
SERVICE_EXECUTE = Failpoint(
    "service.execute", "QueryService dispatch entry — every request, any op"
)


class FailpointError(OSError):
    """Injected failure; an ``OSError`` so durability paths treat it as real."""

    def __init__(self, point: str, err: int = _errno.EIO) -> None:
        super().__init__(err, f"injected chaos failure at failpoint '{point}'")
        self.point = point


class FailpointDropConnection(ConnectionError):
    """Injected connection drop; handlers abandon the peer like a real reset."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected connection drop at failpoint '{point}'")
        self.point = point


class _Armed:
    """One active point: action + optional value + optional remaining count."""

    __slots__ = ("name", "action", "value", "remaining", "hits", "_lock", "_counter")

    def __init__(
        self,
        name: str,
        action: str,
        value: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        self.name = name
        self.action = action
        self.value = value
        self.remaining = count
        self.hits = 0
        self._lock = threading.Lock()
        self._counter = get_registry().counter(
            "chaos_failpoint_hits_total",
            "Times an active chaos failpoint fired, by point name.",
            ("point",),
        ).labels(point=name)

    def trigger(self) -> None:
        with self._lock:
            if self.remaining is not None:
                if self.remaining <= 0:
                    return
                self.remaining -= 1
            self.hits += 1
            self._counter.inc()
            if self.remaining == 0:
                _deactivate_quietly(self.name)
            action, value = self.action, self.value
        if action == "error":
            raise FailpointError(self.name, int(value) if value else _errno.EIO)
        if action == "crash":
            os._exit(int(value) if value else 17)
        if action == "delay":
            time.sleep((value or 0.0) / 1000.0)
            return
        if action == "drop":
            raise FailpointDropConnection(self.name)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "point": self.name,
                "action": self.action,
                "value": self.value,
                "remaining": self.remaining,
                "hits": self.hits,
            }


# Copy-on-write registry: `Failpoint.fire` reads `_points` with no lock
# (dict reads are atomic); mutations swap in a fresh dict under
# `_mutate_lock`.  The `_armed` boolean is the entire cost of the disabled
# path.
_armed: bool = False
_points: Dict[str, _Armed] = {}
_hits_retired: Dict[str, int] = {}
_mutate_lock = threading.Lock()


def activate(
    point: str,
    action: str,
    value: Optional[float] = None,
    count: Optional[int] = None,
) -> None:
    """Arm ``point`` with ``action`` (replacing any previous arming).

    ``count`` limits how many times the point fires before it disarms
    itself; ``None`` means until :func:`deactivate`.  Unknown point names
    are rejected — a chaos run that silently injects nothing because of
    a typo would report a vacuous pass.
    """
    global _armed
    if point not in CATALOGUE:
        known = ", ".join(sorted(CATALOGUE))
        raise ValueError(f"unknown failpoint '{point}' (known: {known})")
    if action not in ACTIONS:
        raise ValueError(f"unknown failpoint action '{action}' (known: {ACTIONS})")
    if count is not None and int(count) <= 0:
        raise ValueError(f"failpoint count must be positive, got {count}")
    with _mutate_lock:
        replaced = dict(_points)
        replaced[point] = _Armed(
            point, action, value, None if count is None else int(count)
        )
        _swap(replaced)


def deactivate(point: str) -> bool:
    """Disarm ``point``; returns whether it was active."""
    with _mutate_lock:
        if point not in _points:
            return False
        replaced = dict(_points)
        fp = replaced.pop(point)
        _hits_retired[point] = _hits_retired.get(point, 0) + fp.hits
        _swap(replaced)
        return True


def _deactivate_quietly(point: str) -> None:
    """Count-exhausted self-disarm, called with the point's lock held."""
    with _mutate_lock:
        if point in _points:
            replaced = dict(_points)
            fp = replaced.pop(point)
            _hits_retired[point] = _hits_retired.get(point, 0) + fp.hits
            _swap(replaced)


def reset() -> None:
    """Disarm every point and forget retired hit counts."""
    with _mutate_lock:
        _hits_retired.clear()
        _swap({})


def _swap(replaced: Dict[str, _Armed]) -> None:
    global _points, _armed
    _points = replaced
    _armed = bool(replaced)


def is_active(point: str) -> bool:
    return point in _points


def active() -> List[Dict[str, object]]:
    """Describe every armed point (stable order)."""
    return [fp.describe() for _, fp in sorted(_points.items())]


def hits() -> Dict[str, int]:
    """Total fire counts per point, including disarmed points."""
    out = dict(_hits_retired)
    for name, fp in _points.items():
        out[name] = out.get(name, 0) + fp.describe()["hits"]  # type: ignore[operator]
    return out


# --------------------------------------------------------------------- #
# Environment propagation (spawn-based children inherit active points)
# --------------------------------------------------------------------- #
def parse_spec(text: str) -> List[Dict[str, object]]:
    """Parse ``name=action[:value][*count][;...]`` into activation kwargs."""
    specs: List[Dict[str, object]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad failpoint spec '{part}' (expected name=action)")
        name, _, rhs = part.partition("=")
        count: Optional[int] = None
        if "*" in rhs:
            rhs, _, count_text = rhs.rpartition("*")
            count = int(count_text)
        action, _, value_text = rhs.partition(":")
        value = float(value_text) if value_text else None
        specs.append(
            {"point": name.strip(), "action": action.strip(), "value": value,
             "count": count}
        )
    return specs


def format_spec(point: str, action: str, value=None, count=None) -> str:
    """One spec in the ``ENV_VAR`` grammar (inverse of :func:`parse_spec`)."""
    text = f"{point}={action}"
    if value is not None:
        text += f":{value:g}"
    if count is not None:
        text += f"*{int(count)}"
    return text


def env_spec() -> str:
    """Serialise the armed points for a child's ``REPRO_FAILPOINTS``."""
    parts = []
    for desc in active():
        parts.append(
            format_spec(
                str(desc["point"]), str(desc["action"]),
                desc["value"], desc["remaining"],
            )
        )
    return ";".join(parts)


def install_from_env(environ=os.environ) -> int:
    """Activate every point named in ``REPRO_FAILPOINTS``; returns how many.

    Runs once at import, which is what makes env-var propagation work:
    any child process that imports this module (every process serving
    the stack does, via the imported handles) arms its inherited points
    before serving its first request.
    """
    text = environ.get(ENV_VAR, "")
    if not text:
        return 0
    specs = parse_spec(text)
    for spec in specs:
        activate(**spec)  # type: ignore[arg-type]
    return len(specs)


def remote_control_enabled(environ=os.environ) -> bool:
    """Whether the ``chaos`` wire op may control this process's failpoints."""
    return environ.get(CONTROL_ENV_VAR, "").strip().lower() in ("1", "true", "yes", "on")


install_from_env()

"""A dependency-free distributed tracer for the serving stack.

Where the metrics registry (:mod:`repro.obs.registry`) answers "how is
the fleet doing in aggregate", this module answers "why was *this one
request* slow": each traced request produces a tree of :class:`Span`
records — one per tier it touched (server, admission queue wait, WAL
group-commit fsync, shard load, engine compute, replica sync check,
mirror sync) — with monotonic start/end timestamps, attributes and
parentage, collected into a bounded in-memory ring of finished traces.

Sampling
--------
Two knobs, combinable:

``sample_rate``
    Probabilistic head sampling: each *root* request flips a coin once;
    children inherit the decision (children are only recorded when an
    ancestor is).
``slow_ms``
    Always-on-slow: when set, every request is recorded *speculatively*
    and kept only if the root span's duration reaches the threshold (or
    the coin also came up sampled).  So the slowest requests always
    have a full breakdown, whatever the sample rate.

A tracer with ``sample_rate == 0`` and ``slow_ms is None`` is *disabled*
and every entry point degrades to a shared no-op context manager — the
default for every process, so untraced deployments pay only a predicate
check per request.

Context
-------
The current span is thread-local.  :meth:`Tracer.start_request` opens a
root span (optionally adopting a remote wire context — see
:meth:`Tracer.wire_context` for the ``{"trace_id", "parent_span_id",
"sampled"}`` request field), :meth:`Tracer.start_span` opens a child of
whatever is current, and :meth:`Tracer.use_span` re-activates an
existing span on another thread (how the admission queue's writer
thread attributes WAL fsyncs to the request that triggered the batch).
:meth:`Tracer.record_span` backfills an already-elapsed interval from
explicit timestamps (queue wait is only known once the batch is
claimed).

Like the metrics registry, a per-process default tracer
(:func:`get_tracer`) is what the serving layers bind at construction;
:func:`use_tracer` swaps it temporarily for tests and benchmarks.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TraceBuffer",
    "Tracer",
    "get_tracer",
    "render_trace",
    "set_tracer",
    "use_tracer",
]

#: Attribute values are coerced to these JSON-safe scalar types.
_SCALARS = (str, int, float, bool)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def _clean_attributes(attributes: Optional[Dict[str, object]]) -> Dict[str, object]:
    if not attributes:
        return {}
    return {
        str(k): (v if isinstance(v, _SCALARS) else str(v))
        for k, v in attributes.items()
    }


class _NoopSpan:
    """Absorbs the full span surface at zero cost; never recorded."""

    __slots__ = ()
    recording = False
    trace_id = ""
    span_id = ""
    parent_id = ""
    name = ""

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def set_status(self, status: str, detail: str = "") -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<noop span>"


#: The shared placeholder yielded by every untraced context.
NOOP_SPAN = _NoopSpan()


class _NoopContext:
    """Reusable ``with``-target for the disabled/unsampled fast path."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()


class Span:
    """One recorded operation: a named, timed, attributed tree node.

    Timestamps are ``time.perf_counter()`` values (monotonic; only
    differences are meaningful).  The wall-clock anchor lives on the
    trace record, stamped when the root span opens.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "status",
        "detail",
        "_record",
    )

    recording = True

    def __init__(
        self,
        name: str,
        record: "_TraceRecord",
        parent_id: str = "",
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = str(name)
        self.trace_id = record.trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attributes = _clean_attributes(attributes)
        self.status = "ok"
        self.detail = ""
        self._record = record

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[str(key)] = value if isinstance(value, _SCALARS) else str(value)

    def set_status(self, status: str, detail: str = "") -> None:
        self.status = str(status)
        self.detail = str(detail)

    def to_dict(self, epoch: float) -> Dict[str, object]:
        end = self.end if self.end is not None else self.start
        out: Dict[str, object] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round((self.start - epoch) * 1000.0, 3),
            "duration_ms": round((end - self.start) * 1000.0, 3),
            "status": self.status,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, trace={self.trace_id[:8]}…)"


class _TraceRecord:
    """Mutable collector for one in-flight trace (root + children)."""

    __slots__ = (
        "trace_id",
        "sampled",
        "start_time",
        "lock",
        "spans",
        "closed",
        "dropped",
        "max_spans",
    )

    def __init__(self, trace_id: str, sampled: bool, max_spans: int) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self.start_time = time.time()
        self.lock = threading.Lock()
        self.spans: List[Span] = []
        self.closed = False
        self.dropped = 0
        self.max_spans = max_spans

    def add(self, span: Span) -> bool:
        with self.lock:
            if self.closed or len(self.spans) >= self.max_spans:
                self.dropped += 1
                return False
            self.spans.append(span)
            return True

    def finish(self, root: Span, slow: bool) -> Dict[str, object]:
        """Close the record and freeze it into a JSON-safe trace dict."""
        with self.lock:
            self.closed = True
            spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
            dropped = self.dropped
        end = root.end if root.end is not None else root.start
        out: Dict[str, object] = {
            "trace_id": self.trace_id,
            "root": root.name,
            "sampled": self.sampled,
            "slow": slow,
            "start_time": self.start_time,
            "duration_ms": round((end - root.start) * 1000.0, 3),
            "spans": [span.to_dict(root.start) for span in spans],
        }
        if dropped:
            out["spans_dropped"] = dropped
        return out


class TraceBuffer:
    """Thread-safe bounded ring of finished traces (newest evicts oldest)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"trace buffer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=self.capacity)

    def append(self, trace: Dict[str, object]) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Finished traces, oldest first; optionally filtered / truncated.

        ``limit`` keeps the *newest* N after filtering (the most recent
        traces are the ones an operator is debugging).
        """
        with self._lock:
            out = list(self._traces)
        if trace_id is not None:
            out = [t for t in out if t.get("trace_id") == trace_id]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


class _SpanContext:
    """``with``-target that finishes ``span`` (and the trace, if root)."""

    __slots__ = ("_tracer", "_span", "_is_root", "_previous")

    def __init__(self, tracer: "Tracer", span: Span, is_root: bool) -> None:
        self._tracer = tracer
        self._span = span
        self._is_root = is_root
        self._previous: object = None

    def __enter__(self) -> Span:
        local = self._tracer._local
        self._previous = getattr(local, "span", None)
        local.span = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.end = time.perf_counter()
        if exc_type is not None and span.status == "ok":
            span.set_status("error", f"{exc_type.__name__}: {exc}")
        self._tracer._local.span = self._previous
        span._record.add(span)
        if self._is_root:
            self._tracer._finish_trace(span)
        return False


class _ActivateContext:
    """Temporarily make an existing span the thread's current span."""

    __slots__ = ("_tracer", "_span", "_previous")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._previous: object = None

    def __enter__(self) -> Span:
        local = self._tracer._local
        self._previous = getattr(local, "span", None)
        local.span = self._span
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._tracer._local.span = self._previous
        return False


class Tracer:
    """Samples requests into span trees and rings finished traces.

    Parameters
    ----------
    sample_rate:
        Probability in ``[0, 1]`` that a root request is recorded.
    slow_ms:
        When set, record every request speculatively and keep any whose
        root span lasted at least this many milliseconds (on top of the
        probabilistic keeps).
    buffer_capacity:
        How many finished traces the ring retains.
    max_spans_per_trace:
        Per-trace span cap; spans past it are counted as dropped, not
        stored (a runaway sweep must not hold the process's memory).
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        slow_ms: Optional[float] = None,
        buffer_capacity: int = 256,
        max_spans_per_trace: int = 512,
    ) -> None:
        rate = float(sample_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if slow_ms is not None and float(slow_ms) < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.sample_rate = rate
        self.slow_ms = None if slow_ms is None else float(slow_ms)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.buffer = TraceBuffer(buffer_capacity)
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._started = 0
        self._sampled = 0
        self._kept = 0
        self._kept_slow = 0
        self._discarded = 0
        self._spans = 0

    # -- state ---------------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        """Whether any request can possibly be recorded."""
        return self.sample_rate > 0.0 or self.slow_ms is not None

    def current_span(self) -> Optional[Span]:
        """The thread's active *recording* span, or ``None``."""
        span = getattr(self._local, "span", None)
        return span if isinstance(span, Span) else None

    # -- span creation --------------------------------------------------- #
    def start_request(
        self,
        name: str,
        remote: object = None,
        attributes: Optional[Dict[str, object]] = None,
    ):
        """Open a *root* span for one request (the sampling point).

        ``remote`` is the optional wire-context dict from the request's
        ``trace`` field; a valid, sampled remote context is adopted
        (same trace id, root parented under the caller's span) so one
        trace id spans client and server processes.  Anything invalid —
        old clients, hand-rolled frames — is ignored.
        """
        if not self.enabled:
            return _NOOP_CONTEXT
        trace_id = ""
        parent_id = ""
        sampled = False
        ctx = _valid_wire_context(remote)
        if ctx is not None:
            trace_id, parent_id = ctx
            sampled = True
        elif self.sample_rate > 0.0 and (
            self.sample_rate >= 1.0 or random.random() < self.sample_rate
        ):
            sampled = True
        if not sampled and self.slow_ms is None:
            with self._stats_lock:
                self._started += 1
            return _NOOP_CONTEXT
        record = _TraceRecord(
            trace_id or _new_trace_id(), sampled, self.max_spans_per_trace
        )
        span = Span(name, record, parent_id=parent_id, attributes=attributes)
        with self._stats_lock:
            self._started += 1
            self._spans += 1
            if sampled:
                self._sampled += 1
        return _SpanContext(self, span, is_root=True)

    def start_span(
        self, name: str, attributes: Optional[Dict[str, object]] = None
    ):
        """Open a child of the current span (no-op when nothing records)."""
        parent = getattr(self._local, "span", None)
        if not isinstance(parent, Span):
            return _NOOP_CONTEXT
        span = Span(
            name, parent._record, parent_id=parent.span_id, attributes=attributes
        )
        with self._stats_lock:
            self._spans += 1
        return _SpanContext(self, span, is_root=False)

    def use_span(self, span: Optional[Span]):
        """Re-activate ``span`` on this thread (cross-thread attribution).

        ``None`` or a non-recording span yields the shared no-op, so
        callers can unconditionally ``with tracer.use_span(maybe_span):``.
        """
        if not isinstance(span, Span):
            return _NOOP_CONTEXT
        return _ActivateContext(self, span)

    def record_span(
        self,
        name: str,
        parent: Optional[Span],
        start: float,
        end: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        """Backfill an already-elapsed interval under ``parent``.

        ``start``/``end`` are ``time.perf_counter()`` stamps taken by the
        caller (e.g. admission submit/claim times).  Returns the span, or
        ``None`` when nothing was recorded (no parent, trace closed).
        """
        if not isinstance(parent, Span):
            return None
        span = Span(
            name, parent._record, parent_id=parent.span_id, attributes=attributes
        )
        span.start = float(start)
        span.end = float(end)
        if not parent._record.add(span):
            return None
        with self._stats_lock:
            self._spans += 1
        return span

    # -- propagation ----------------------------------------------------- #
    def wire_context(self) -> Optional[Dict[str, object]]:
        """The ``trace`` request field for the current span, or ``None``.

        Only *sampled* contexts propagate: a speculative slow-only trace
        stays process-local (the remote peer cannot retroactively learn
        that the whole request turned out slow).
        """
        span = self.current_span()
        if span is None or not span._record.sampled:
            return None
        return {
            "trace_id": span.trace_id,
            "parent_span_id": span.span_id,
            "sampled": True,
        }

    # -- completion ------------------------------------------------------ #
    def _finish_trace(self, root: Span) -> None:
        record = root._record
        end = root.end if root.end is not None else root.start
        duration_ms = (end - root.start) * 1000.0
        slow = self.slow_ms is not None and duration_ms >= self.slow_ms
        if not record.sampled and not slow:
            with self._stats_lock:
                self._discarded += 1
            return
        trace = record.finish(root, slow)
        self.buffer.append(trace)
        with self._stats_lock:
            self._kept += 1
            if slow:
                self._kept_slow += 1

    # -- export ---------------------------------------------------------- #
    def finished_traces(
        self, trace_id: Optional[str] = None, limit: Optional[int] = 20
    ) -> List[Dict[str, object]]:
        """Finished traces from the ring (see :meth:`TraceBuffer.traces`)."""
        return self.buffer.traces(trace_id=trace_id, limit=limit)

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters (the ``stats()["tracing"]`` payload)."""
        with self._stats_lock:
            return {
                "enabled": self.enabled,
                "sample_rate": self.sample_rate,
                "slow_ms": self.slow_ms,
                "requests": self._started,
                "sampled": self._sampled,
                "kept": self._kept,
                "kept_slow": self._kept_slow,
                "discarded": self._discarded,
                "spans": self._spans,
                "buffered": len(self.buffer),
            }


def _valid_wire_context(remote: object) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a sampled wire dict, else None."""
    if not isinstance(remote, dict) or not remote.get("sampled"):
        return None
    trace_id = remote.get("trace_id")
    if not isinstance(trace_id, str) or not 8 <= len(trace_id) <= 64:
        return None
    try:
        int(trace_id, 16)
    except ValueError:
        return None
    parent = remote.get("parent_span_id", "")
    if not isinstance(parent, str) or len(parent) > 64:
        parent = ""
    return trace_id, parent


# --------------------------------------------------------------------- #
# Rendering (the `repro trace` CLI)
# --------------------------------------------------------------------- #
def render_trace(trace: Dict[str, object]) -> str:
    """Render one finished trace dict as an indented span tree."""
    spans = list(trace.get("spans") or [])
    header = (
        f"trace {trace.get('trace_id', '?')}  root={trace.get('root', '?')}  "
        f"duration={float(trace.get('duration_ms') or 0.0):.2f}ms"
    )
    flags = [flag for flag in ("sampled", "slow") if trace.get(flag)]
    if flags:
        header += "  [" + ",".join(flags) + "]"
    lines = [header]
    if trace.get("spans_dropped"):
        lines.append(f"  ({trace['spans_dropped']} span(s) dropped: trace full)")

    ids = {span.get("span_id") for span in spans}
    children: Dict[object, List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        parent = span.get("parent_id") or ""
        if parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def _emit(span: dict, depth: int) -> None:
        name = str(span.get("name", "?"))
        duration = float(span.get("duration_ms") or 0.0)
        start = float(span.get("start_ms") or 0.0)
        label = "  " * depth + name
        line = f"  {label:<40s} {start:9.2f}ms +{duration:9.2f}ms"
        if span.get("status") not in (None, "ok"):
            line += f"  !{span['status']}"
            if span.get("detail"):
                line += f" ({span['detail']})"
        attrs = span.get("attributes")
        if attrs:
            rendered = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            line += f"  {{{rendered}}}"
        lines.append(line)
        for child in children.get(span.get("span_id"), ()):
            _emit(child, depth + 1)

    for root in roots:
        _emit(root, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Per-process default tracer
# --------------------------------------------------------------------- #
_default_tracer = Tracer()  # disabled: zero overhead until configured
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The per-process default tracer every layer binds at construction."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one."""
    global _default_tracer
    with _default_lock:
        previous, _default_tracer = _default_tracer, tracer
    return previous


def use_tracer(tracer: Tracer):
    """Scoped default-tracer swap (mirrors :func:`use_registry`).

    Components bind their tracer at *construction* time, so only objects
    constructed inside the block emit spans to ``tracer``.
    """
    return _TracerSwap(tracer)


class _TracerSwap:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info) -> bool:
        if self._previous is not None:
            set_tracer(self._previous)
        return False

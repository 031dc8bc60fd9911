"""In-memory spans recorded from the benchmark's side, and their arithmetic.

A span is ``(id, name, start, end, parent, request, thread)`` with times
from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, so server- and
harness-process spans share one clock).  ``name`` is ``<layer>.<function>``;
the layer is everything before the first dot.

:class:`SpanRecorder` is what ``traced_serve.py`` wraps the program's
public callables with; the functions below it are pure and turn a span
list into the per-layer table:

* a span's **self time** is its duration minus the part of its interval
  its child spans cover; children running in parallel on other threads
  split the instants they share, so one request's self times always sum
  to the request's duration;
* spans recorded on a thread with no open parent (the admission writer
  thread) are **adopted** by the request that was waiting for them;
* a layer's **share** is the sum of its spans' self seconds over the sum
  of request seconds — both sums are reported, the ratio is derived.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    """One recorded interval."""

    id: int
    name: str
    start: float
    end: float
    parent: int  # 0: no parent (a root)
    request: int  # id of the root span this work belongs to (0: unknown)
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe, append-only span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[int, int]:
        """``(span id, request id)`` of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (0, 0)

    @contextmanager
    def span(self, name: str, parent: Optional[Tuple[int, int]] = None) -> Iterator[int]:
        """Record ``name`` around the block; nests under the thread's open span.

        ``parent`` overrides the thread-local parent (cross-thread handoff:
        a worker thread continuing a request another thread received).
        """
        stack = self._stack()
        parent_id, request = parent if parent is not None else (stack[-1] if stack else (0, 0))
        span_id = next(self._ids)
        if not request:
            request = span_id
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL: no lock on the hot path.
            self.spans.append(
                Span(span_id, name, start, end, parent_id, request, threading.get_ident())
            )

    def open_root(self, name: str, start: float) -> None:
        """Open a root span whose start was observed earlier (frame arrival)."""
        span_id = next(self._ids)
        self._local.root = (span_id, name, start)
        self._stack().append((span_id, span_id))

    def close_root(self) -> None:
        """Close the root opened by :meth:`open_root` (no-op when none is open)."""
        root = getattr(self._local, "root", None)
        if root is None:
            return
        self._local.root = None
        span_id, name, start = root
        stack = self._stack()
        while stack and stack[-1][0] != span_id:
            stack.pop()  # an exception unwound past a child: drop it
        if stack:
            stack.pop()
        self.spans.append(
            Span(span_id, name, start, time.perf_counter(), 0, span_id, threading.get_ident())
        )

    def record(
        self, name: str, start: float, end: float, parent: Optional[Tuple[int, int]] = None
    ) -> int:
        """Backfill an already-measured interval under the current span."""
        parent_id, request = parent if parent is not None else self.current()
        span_id = next(self._ids)
        self.spans.append(
            Span(
                span_id, name, start, end, parent_id, request or span_id, threading.get_ident()
            )
        )
        return span_id

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (called once, at shutdown)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans]}, handle)


def load_spans(path: str) -> List[Span]:
    """Spans written by :meth:`SpanRecorder.dump`."""
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


# --------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def adopt_orphans(spans: Sequence[Span], waiter_name: str) -> List[Span]:
    """Give parentless non-root spans to the request that waited for them.

    Work on the admission writer thread has no open parent on its own
    thread.  Each such orphan (any root-less span that is *not* itself
    named like a request root or a waiter) is attached to the earliest-
    started ``waiter_name`` span whose interval contains the orphan's
    midpoint — the request whose future that work resolves; other waiters
    of the same group commit keep their whole wait as self time.
    Descendants of an adopted span inherit its request id.
    """
    waiters = sorted((s for s in spans if s.name == waiter_name), key=lambda s: s.start)
    adopted: Dict[int, Span] = {}
    for span in spans:
        if span.parent or span.name == waiter_name or span.request != span.id:
            continue
        if span.name.endswith(".request"):
            continue
        mid = (span.start + span.end) / 2.0
        owner = next((w for w in waiters if w.start <= mid <= w.end), None)
        if owner is not None:
            adopted[span.id] = span._replace(parent=owner.id, request=owner.request)
    if not adopted:
        return list(spans)
    request_of = {old_id: new.request for old_id, new in adopted.items()}
    out: List[Span] = []
    for span in spans:
        if span.id in adopted:
            out.append(adopted[span.id])
        elif span.request in request_of:
            out.append(span._replace(request=request_of[span.request]))
        else:
            out.append(span)
    return out


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self seconds per span id, partitioning each request's wall time.

    Within one request (spans sharing a ``request`` id, clipped to the
    root's interval) every instant belongs to the spans that are open with
    no open child — the innermost work.  On one thread that is the usual
    "duration minus the part child spans cover".  When children run in
    parallel on other threads (a ``batch`` frame fanned over workers) the
    instant is split equally between the parallel leaves, so the self
    times of a request always add up to the root span's duration.
    """
    by_request: Dict[int, List[Span]] = {}
    for span in spans:
        by_request.setdefault(span.request, []).append(span)
    own: Dict[int, float] = {span.id: 0.0 for span in spans}
    for request, members in by_request.items():
        root = next((s for s in members if s.id == request), None)
        lo, hi = (root.start, root.end) if root else (-float("inf"), float("inf"))
        events: List[Tuple[float, int, Span]] = []
        for span in members:
            start, end = max(span.start, lo), min(span.end, hi)
            if end > start:
                events.append((start, 1, span))
                events.append((end, 0, span))
        # Ends sort before starts at equal times: back-to-back siblings never overlap.
        events.sort(key=lambda event: (event[0], event[1]))
        open_children: Dict[int, int] = {}
        counted: Dict[int, bool] = {}
        cursor = 0.0
        for when, is_start, span in events:
            leaves = [sid for sid, children in open_children.items() if children == 0]
            if leaves and when > cursor:
                share = (when - cursor) / len(leaves)
                for sid in leaves:
                    own[sid] += share
            cursor = when
            if is_start:
                open_children[span.id] = 0
                counted[span.id] = span.parent in open_children
                if counted[span.id]:
                    open_children[span.parent] += 1
            else:
                del open_children[span.id]
                if counted.pop(span.id) and span.parent in open_children:
                    open_children[span.parent] -= 1
    return own


def exclusive_ms(spans: Sequence[Span], name: str) -> List[float]:
    """Per span called ``name``: milliseconds its direct children do not cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.duration - covered(children.get(s.id, ()), s.start, s.end)) * 1000.0
        for s in spans
        if s.name == name
    ]


def layer_self_seconds(
    spans: Sequence[Span], window: Optional[Tuple[float, float]], root_name: str
) -> Tuple[Dict[str, float], float]:
    """``({layer: self seconds}, request seconds)`` over roots starting in ``window``.

    A root is a parentless span called ``root_name`` (other parentless
    spans are background work nobody waited for, and are left out); its
    own self time — request time no child span covers — is booked to the
    ``untraced`` layer.
    """
    roots = {
        s.id
        for s in spans
        if not s.parent
        and s.name == root_name
        and (window is None or window[0] <= s.start <= window[1])
    }
    own = self_times(spans)
    by_layer: Dict[str, float] = {}
    request_seconds = 0.0
    for span in spans:
        if span.request not in roots:
            continue
        if span.id in roots:
            request_seconds += span.duration
            layer = "untraced"
        else:
            layer = span.layer
        by_layer[layer] = by_layer.get(layer, 0.0) + own[span.id]
    return by_layer, request_seconds


def add_client_side(
    server_layers: Dict[str, float],
    server_request_seconds: float,
    calls: Sequence[Tuple[str, float, float]],
) -> Tuple[Dict[str, float], float]:
    """Fold the harness's own intervals into a server-side layer table.

    ``calls`` are ``(op, start, end)`` intervals timed in the harness:
    ``sync`` is a whole ``StoreMirror.sync()`` (a request of its own whose
    children are the ``wire.*`` client calls it made); everything else is
    one client round trip.  A round trip's time outside the server's
    request span — client encode/decode, sockets, thread wake-up — is
    transport self time; a sync's time outside its wire calls is
    replication self time.  Returns ``(layers, request seconds)`` whose
    layer sum equals the request seconds.
    """
    round_trips = sum(end - start for op, start, end in calls if op != "sync")
    wire = sum(end - start for op, start, end in calls if op.startswith("wire."))
    syncs = sum(end - start for op, start, end in calls if op == "sync")
    layers = dict(server_layers)
    layers["transport"] = layers.get("transport", 0.0) + round_trips - server_request_seconds
    layers["replication"] = layers.get("replication", 0.0) + syncs - wire
    return layers, round_trips - wire + syncs

"""Launch ``repro serve`` with span recorders wrapped around its layers.

Usage (what ``run.py --trace 1`` spawns)::

    python traced_serve.py --spans-out FILE serve --path STORE --listen 127.0.0.1:0 ...

Everything after ``--spans-out FILE`` goes to ``repro.cli.main`` verbatim:
same flags, same topology as the untraced server.  No file under ``src/``
changes; the public callables of each layer are wrapped *from here*, and
names that ``server.py`` bound with ``from framing import ...`` are patched
where they are bound.  Spans stay in memory and are written to FILE once
``main`` returns (SIGTERM drains and joins every handler thread first).

A request's root span (``transport.request``) starts when the frame's
length prefix has arrived — waiting for the client's next request is idle,
not busy — and ends when the response has been handed to the socket.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from e2e_spans import SpanRecorder  # noqa: E402

REQUEST_ROOT = "transport.request"
ADMISSION_WAIT = "service.admission_wait"


def _wrap(recorder: SpanRecorder, owner: object, attr: str, name: str) -> None:
    """Replace ``owner.attr`` with a version that records span ``name``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of the serving stack with ``recorder``."""
    from repro.core import pipeline as core_pipeline
    from repro.core.slinegraph import SLineGraph
    from repro.engine.engine import QueryEngine
    from repro.service.admission import AdmissionQueue
    from repro.service.service import QueryService
    from repro.service.sync import RWLock
    from repro.service.transport import framing, server
    from repro.store.replication import LocalReplicationSource
    from repro.store.sharded import ShardedIndex
    from repro.store.store import IndexStore
    from repro.store.wal import WriteAheadLog

    # -- transport: request roots open at length-prefix arrival ---------- #
    recv_exact = framing.recv_exact

    @functools.wraps(recv_exact)
    def traced_recv_exact(sock, num_bytes, at_boundary, on_timeout=None):
        if at_boundary:
            data = recv_exact(sock, num_bytes, at_boundary, on_timeout)
            if data is not None:
                recorder.close_root()  # a request that never reached _send
                recorder.open_root(REQUEST_ROOT, time.perf_counter())
            return data
        with recorder.span("transport.recv_body"):
            return recv_exact(sock, num_bytes, at_boundary, on_timeout)

    framing.recv_exact = traced_recv_exact
    _wrap(recorder, framing, "decode_payload", "transport.decode_payload")
    _wrap(recorder, framing, "decode_binary_frame", "transport.decode_binary_frame")
    # server.py bound these with `from framing import`: patch them there.
    _wrap(recorder, server, "encode_frame", "transport.encode_frame")
    _wrap(recorder, server, "encode_binary_frame", "transport.encode_binary_frame")

    send = server.SocketServer._send

    @functools.wraps(send)
    def traced_send(self, conn, payload, *args, **kwargs):
        try:
            with recorder.span("transport.send"):
                return send(self, conn, payload, *args, **kwargs)
        finally:
            recorder.close_root()

    server.SocketServer._send = traced_send

    # -- service: one execute span per request; batch fan-out re-parented - #
    handoff = {}  # id(sub-request dict) -> (span id, request id) of service.serve
    execute = QueryService.execute

    @functools.wraps(execute)
    def traced_execute(self, request):
        with recorder.span("service.execute", parent=handoff.get(id(request))):
            return execute(self, request)

    QueryService.execute = traced_execute
    serve = QueryService.serve

    @functools.wraps(serve)
    def traced_serve(self, requests, *args, **kwargs):
        requests = list(requests)
        with recorder.span("service.serve"):
            here = recorder.current()
            for request in requests:
                handoff[id(request)] = here
            try:
                return serve(self, requests, *args, **kwargs)
            finally:
                for request in requests:
                    handoff.pop(id(request), None)

    QueryService.serve = traced_serve

    for side in ("read", "write"):
        original = getattr(RWLock, side)

        def make(original=original, side=side):
            @contextmanager
            def traced_lock(self):
                start = time.perf_counter()
                with original(self):
                    recorder.record(f"service.rwlock_{side}_wait", start, time.perf_counter())
                    yield

            return traced_lock

        setattr(RWLock, side, make())

    for attr in ("submit_add", "submit_remove"):
        original = getattr(AdmissionQueue, attr)

        def make(original=original):
            @functools.wraps(original)
            def traced_submit(self, *args, **kwargs):
                waiter = recorder.current()
                start = time.perf_counter()
                future = original(self, *args, **kwargs)
                # Runs on the writer thread the moment the ack is set.
                future.add_done_callback(
                    lambda _f: recorder.record(
                        ADMISSION_WAIT, start, time.perf_counter(), parent=waiter
                    )
                )
                return future

            return traced_submit

        setattr(AdmissionQueue, attr, make())

    # -- engine / store / core / smetrics / replication ------------------ #
    for attr in (
        "metric",
        "metric_by_hyperedge",
        "sweep",
        "line_graph",
        "squeezed_graph",
        "add_hyperedge",
        "remove_hyperedge",
    ):
        _wrap(recorder, QueryEngine, attr, f"engine.{attr}")
    for attr in ("line_graph", "sweep", "add_hyperedge", "remove_hyperedge"):
        _wrap(recorder, ShardedIndex, attr, f"store.sharded_{attr}")
    for attr in ("append_add", "append_remove"):
        _wrap(recorder, WriteAheadLog, attr, f"store.wal_{attr}")
    _wrap(recorder, IndexStore, "compact", "store.compact")
    _wrap(recorder, os, "fsync", "store.fsync")
    wal_batch = WriteAheadLog.batch

    @contextmanager
    def traced_wal_batch(self):
        with recorder.span("store.wal_batch"), wal_batch(self) as log:
            yield log

    WriteAheadLog.batch = traced_wal_batch
    _wrap(recorder, SLineGraph, "squeeze", "core.squeeze")
    _wrap(recorder, SLineGraph, "to_graph", "core.to_graph")
    # engine.py holds this very dict, so replacing entries reaches it too.
    for name, function in list(core_pipeline.METRIC_FUNCTIONS.items()):

        def make(function=function, name=name):
            @functools.wraps(function)
            def traced_metric(graph):
                with recorder.span(f"smetrics.{name}"):
                    return function(graph)

            return traced_metric

        core_pipeline.METRIC_FUNCTIONS[name] = make()
    for attr in ("repl_manifest", "repl_wal", "repl_wal_suffix", "repl_fetch"):
        _wrap(recorder, LocalReplicationSource, attr, f"replication.{attr}")


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[2:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line interface for the s-line-graph framework.

Sub-commands mirror the stages of the paper's framework so the library can
be driven from the shell on hyperedge-list / bipartite-edge-list files or on
the built-in surrogate datasets:

``stats``        print Table IV-style characteristics of a hypergraph, or
                 — with ``--address`` — a serving peer's ``stats`` payload;
``slinegraph``   compute an s-line graph and write its edge list;
``components``   report the s-connected components;
``datasets``     list the built-in surrogate datasets;
``variants``     run the Table III variants and print their speedups;
``query``        rank hyperedges by one Stage-5 s-measure from the
                 overlap-index engine — over a dataset, a file, or a
                 persistent store (``--path``, warm-served from its
                 mmap'd snapshot);
``sweep``        batched multi-s sweep from one overlap-index build;
``index``        manage persistent overlap-index stores:
                 ``index build`` / ``index info`` / ``index compact``;
``serve``        long-running request server over a store, listening on
                 TCP (length-prefixed frames — see
                 :mod:`repro.service.transport`): one ``serve`` process
                 is the single writer (async batched admission, background
                 compaction), any number of ``serve --read-only``
                 processes are hot-reloading read replicas;
``connect``      drive ad-hoc queries against a ``serve`` server: one-shot
                 metric queries with ``--s``, or a JSONL request loop
                 proxied over the socket;
``replicate``    mirror a remote store over the socket protocol alone (no
                 shared filesystem): bootstrap/refresh a local store
                 directory from any serving peer, and with ``--serve``
                 keep it current while serving it as a read replica —
                 one command stands up a remote read server;
``trace``        render the request traces a serving peer kept.

Examples
--------
::

    python -m repro datasets
    python -m repro stats --dataset livejournal --scale 0.2
    python -m repro slinegraph --dataset email-euall --s 4 --output lg.txt
    python -m repro components --input hyperedges.txt --format hyperedges --s 3
    python -m repro variants --dataset web --s 8 --workers 4
    python -m repro query --dataset email-euall --s 3 --metric pagerank --top 5
    python -m repro sweep --dataset email-euall --s-max 8 --metrics connected_components
    python -m repro index build --dataset email-euall --path idx/ --shards 8
    python -m repro query --path idx/ --s 3 --metric pagerank
    python -m repro index compact --path idx/
    python -m repro serve --path idx/ --listen 127.0.0.1:7474
    python -m repro connect --address 127.0.0.1:7474 --s 3 --metric pagerank
    python -m repro connect --address 127.0.0.1:7474 --requests requests.jsonl
    python -m repro replicate --from 127.0.0.1:7474 --store mirror/ \
        --serve 127.0.0.1:7475
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro.benchmarks.reporting import format_table
from repro.core.algorithms.registry import ALL_VARIANTS, run_variant
from repro.core.dispatch import ALGORITHMS, s_line_graph
from repro.core.pipeline import COMPONENT_METRICS, METRIC_FUNCTIONS
from repro.engine.engine import QueryEngine
from repro.engine.index import BUILD_ALGORITHM
from repro.generators.datasets import available_datasets, load_dataset
from repro.graph.connected_components import num_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.properties import compute_stats
from repro.io.edgelist import read_bipartite_edgelist, read_hyperedge_list
from repro.smetrics.connected import s_connected_components

#: Requests per ``batch`` frame when ``connect`` proxies a request file:
#: bounds frame size and memory on large files.
_BATCH_CHUNK = 256


def _add_input_arguments(parser: argparse.ArgumentParser):
    """The ``--dataset`` / ``--input`` flags; returns their argument group."""
    group = parser.add_argument_group("input")
    group.add_argument("--input", help="path to a hypergraph file")
    group.add_argument(
        "--format",
        choices=["hyperedges", "bipartite"],
        default="hyperedges",
        help="file format of --input (one hyperedge per line, or 'edge vertex' pairs)",
    )
    group.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="use a built-in surrogate dataset instead of --input",
    )
    group.add_argument("--scale", type=float, default=0.3, help="surrogate dataset scale")
    group.add_argument("--seed", type=int, default=0, help="surrogate dataset seed")
    return group


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("tracing")
    group.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        metavar="P",
        help="trace this fraction of requests (0..1); traces are kept in "
        "a bounded in-memory ring served by 'repro trace'",
    )
    group.add_argument(
        "--trace-slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="always keep traces of requests slower than this many ms, "
        "regardless of the sample rate",
    )


def _add_listener_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of a process that fronts a store with a socket (``serve``,
    ``replicate --serve``)."""
    parser.add_argument(
        "--max-connections",
        type=int,
        default=32,
        help="concurrent connections before new ones get a 'busy' error "
        "(backpressure)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="thread fan-out for runs of consecutive query requests",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve Prometheus text, /healthz and /readyz on "
        "http://127.0.0.1:N (0 picks an ephemeral port, printed on the "
        "'metrics-listening' line)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="allow remote failpoint control via the 'chaos' wire op "
        "(testing only; equivalent to REPRO_CHAOS=1)",
    )


def _add_dial_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of every command that dials a serving peer (see :func:`_peer`)."""
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="per-operation socket timeout"
    )
    parser.add_argument(
        "--connect-retries",
        type=int,
        default=40,
        help="connection attempts before giving up (busy/refused peers)",
    )


def _load_hypergraph(args: argparse.Namespace) -> Hypergraph:
    if args.dataset and args.input:
        raise SystemExit("specify either --dataset or --input, not both")
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.input:
        if args.format == "bipartite":
            return read_bipartite_edgelist(args.input)
        return read_hyperedge_list(args.input)
    raise SystemExit("an input is required: pass --dataset <name> or --input <file>")


def _parse_address(text: str) -> tuple:
    """Split ``HOST:PORT`` (the only address syntax the CLI accepts)."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"port in {text!r} is not an integer") from None


@contextlib.contextmanager
def _peer(address: str, args: argparse.Namespace, **options):
    """A connected :class:`ServiceClient` for ``HOST:PORT``, closed on exit.

    Dials with the shared ``--timeout`` / ``--connect-retries`` flags
    (``options`` go to the client as they are) and turns a transport
    failure — at connect or mid-command — into a one-line exit.
    """
    from repro.service.transport import ServiceClient, TransportError

    host, port = _parse_address(address)
    try:
        client = ServiceClient(
            host,
            port,
            timeout=args.timeout,
            connect_retries=args.connect_retries,
            **options,
        ).connect()
    except TransportError as exc:
        raise SystemExit(f"connect failed: {exc}") from None
    try:
        yield client
    except TransportError as exc:
        raise SystemExit(f"transport error: {exc}") from None
    finally:
        client.close()


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.address:
        if args.dataset or args.input:
            raise SystemExit(
                "--address prints a remote server's stats; it cannot be "
                "combined with --dataset/--input"
            )
        return _remote_stats(args)
    if args.raw:
        raise SystemExit("--raw needs --address (it prints remote Prometheus text)")
    h = _load_hypergraph(args)
    stats = compute_stats(h)
    label = args.dataset or args.input or "hypergraph"
    print(stats.as_table_row(str(label)))
    return 0


def _flatten(key: str, value):
    """``(dotted key, rendered leaf)`` rows of a JSON-shaped value."""
    if isinstance(value, dict) and value:
        for sub, item in value.items():
            yield from _flatten(f"{key}.{sub}", item)
    else:
        yield key, value if isinstance(value, str) else json.dumps(value)


def _remote_stats(args: argparse.Namespace) -> int:
    """Print a serving peer's ``stats`` payload, one dotted row per leaf.

    Rows follow the payload's own order, so every key the server sends —
    ``engine.*``, ``admission.*``, ``tracing.*``, ``transport.*`` — is
    shown without a list kept here.  The ``metrics`` registry snapshot is
    summarised as a count; ``--raw`` prints it as Prometheus text.
    """
    with _peer(args.address, args) as client:
        if args.raw:
            sys.stdout.write(client.metrics_text())
            return 0
        stats = client.stats()
    rows = []
    for key, value in stats.items():
        if key == "metrics":
            rows.append((key, f"{len(value)} registered"))
        else:
            rows.extend(_flatten(key, value))
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_slinegraph(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args)
    graph = s_line_graph(h, args.s, algorithm=args.algorithm)
    lines = [
        f"{int(i)} {int(j)} {int(w)}"
        for (i, j), w in zip(graph.edges, graph.weights)
    ]
    body = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(f"# s={args.s} line graph: {graph.num_edges} edges\n")
            handle.write(body + ("\n" if body else ""))
        print(f"wrote {graph.num_edges} edges to {args.output}")
    else:
        print(body)
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args)
    components = s_connected_components(h, args.s, min_size=args.min_size)
    print(f"{len(components)} s-connected components (s={args.s}, min size {args.min_size})")
    for component in components[: args.limit]:
        names = [str(h.edge_name(e)) for e in component]
        print(f"  size={len(component)}: {names}")
    return 0


def _print_top(scores, top: int, title: str, name_of) -> None:
    """Rank ``{hyperedge ID: score}`` by (-score, ID) and print the first ``top``."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    print(f"top {len(ranked)} hyperedges by {title}")
    for edge_id, score in ranked:
        print(f"  {name_of(edge_id)}\t{score:.6f}")


def _cmd_variants(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args)
    runtimes = {}
    for notation in ALL_VARIANTS:
        result = run_variant(h, args.s, notation, num_workers=args.workers)
        runtimes[notation] = result.total_seconds
    baseline = runtimes["1CN"]
    print(f"speedup relative to 1CN (s={args.s}, {args.workers} workers)")
    for notation in sorted(runtimes, key=runtimes.get):
        print(
            f"  {notation}: {baseline / runtimes[notation]:.2f}x  "
            f"({runtimes[notation]:.4f}s)"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.path is None:
        engine = QueryEngine(_load_hypergraph(args), algorithm=args.algorithm)
    elif args.dataset or args.input:
        raise SystemExit("specify one of --dataset, --input or --path")
    else:
        from repro.store import PersistentQueryEngine

        engine = PersistentQueryEngine.open(args.path, read_only=True)
    graph = engine.line_graph(args.s)
    print(
        f"L_{args.s}: {graph.num_edges} edges over {graph.num_active_vertices} "
        f"active hyperedges (index: {engine.index.num_pairs} weighted pairs, "
        f"max s = {engine.max_s()})"
    )
    scores = engine.metric_by_hyperedge(args.s, args.metric)
    _print_top(
        scores, args.top, f"{args.metric} (s={args.s})", engine.hypergraph.edge_name
    )
    return 0


def _metric_summary(name: str, values: np.ndarray):
    """One table cell per (s, metric): component count, or the max value."""
    if name in COMPONENT_METRICS:
        return num_components(values)
    return float(values.max()) if values.size else 0.0


def _cmd_sweep(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args)
    engine = QueryEngine(h, algorithm=args.algorithm)
    metrics = [m for m in (args.metrics or "").split(",") if m]
    result = engine.sweep(range(args.s_min, args.s_max + 1), metrics=metrics)
    headers = ["s", "active", "edges"] + [
        "components" if m in COMPONENT_METRICS else f"max {m}" for m in metrics
    ]
    rows = []
    for s in result.s_values:
        row = [s, result.active_counts[s], result.edge_counts[s]]
        row.extend(_metric_summary(m, result.metrics[s][m]) for m in metrics)
        rows.append(row)
    print(
        f"sweep s={args.s_min}..{args.s_max} from one overlap index "
        f"({engine.index.num_pairs} pairs, {result.elapsed_seconds:.4f}s)"
    )
    print(format_table(headers, rows))
    return 0


def _writer_lock(path: str, owner: str):
    """The store's single-writer lock, taken without waiting: a live writer
    (``serve``, ``replicate``, another ``index`` command) exits non-zero
    with the lease naming it, before anything in the store is touched."""
    from repro.service import StoreLock, StoreLockHeldError

    try:
        return StoreLock(path, owner=owner).acquire(blocking=False)
    except StoreLockHeldError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.store import IndexStore

    h = _load_hypergraph(args)
    source = args.dataset or args.input or "hypergraph"
    start = time.perf_counter()
    with _writer_lock(args.path, "repro-index-build"):
        store = IndexStore.build(
            h,
            args.path,
            algorithm=args.algorithm,
            num_shards=args.shards,
            provenance={"source": str(source)},
        )
    elapsed = time.perf_counter() - start
    m = store.manifest
    print(
        f"built snapshot at {store.path} in {elapsed:.4f}s: "
        f"{m.num_pairs} pairs over {m.num_hyperedges} hyperedges, "
        f"{len(m.shards)} shards, max s = {m.max_weight}"
    )
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    from repro.store import IndexStore

    info = IndexStore.open(args.path, read_only=True).info()
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    from repro.store import IndexStore, read_manifest

    read_manifest(args.path)  # a missing store is reported, never created
    with _writer_lock(args.path, "repro-index-compact"):
        store = IndexStore.open(args.path)
        folded = store.num_wal_records()
        start = time.perf_counter()
        manifest = store.compact(num_shards=args.shards)
    print(
        f"compacted {folded} WAL records into generation "
        f"{manifest.generation} ({manifest.num_pairs} pairs, "
        f"{len(manifest.shards)} shards) in {time.perf_counter() - start:.4f}s"
    )
    return 0


def _proxy_jsonl(client, stream, interactive: bool) -> None:
    """``connect``'s JSONL loop over one socket connection.

    One request object per input line, one response object per output
    line, order preserved.  Runs of consecutive query requests (the
    contract's ``fanout_read`` ops, which only read) travel as ``batch``
    frames of at most :data:`_BATCH_CHUNK`; anything else — mutations,
    bad lines — drains the run first so sequential semantics hold.  In
    ``interactive`` mode every line is answered immediately.  A
    ``{"op": "stop"}`` line (or EOF) ends the loop.
    """
    from repro.service.contract import is_fanout_read, op_name
    from repro.service.transport import RemoteServiceError

    pending: list = []

    def emit(response) -> None:
        print(json.dumps(response), flush=True)

    def drain() -> None:
        while pending:
            chunk = pending[:_BATCH_CHUNK]
            del pending[: len(chunk)]
            if len(chunk) == 1:
                responses = [client.call(chunk[0])]
            else:
                try:
                    responses = client.batch(chunk)
                except RemoteServiceError:
                    # An envelope failure (e.g. a batch response over the
                    # frame cap) degrades to per-request round trips
                    # instead of aborting the run.
                    responses = [client.call(request) for request in chunk]
            for response in responses:
                emit(response)

    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            drain()
            emit({"ok": False, "error": f"bad JSON: {exc}"})
            continue
        if not isinstance(request, dict):
            drain()
            emit({"ok": False, "error": "request must be an object"})
            continue
        op = op_name(request)
        if op == "stop":
            break
        if is_fanout_read(op):
            pending.append(request)
            if interactive or len(pending) >= _BATCH_CHUNK:
                drain()
            continue
        drain()
        emit(client.call(request))
    drain()


def _serve_socket(service, args: argparse.Namespace) -> int:
    """Front the service with a :class:`SocketServer` until SIGINT/SIGTERM."""
    import signal
    import threading

    from repro.service.transport import (
        PROTOCOL_VERSION,
        SUPPORTED_PROTOCOLS,
        SocketServer,
    )

    host, port = _parse_address(args.listen)
    stop = threading.Event()

    def handle_signal(signum, frame):
        stop.set()

    protocol_max = getattr(args, "protocol", None)
    server = SocketServer(
        service,
        host=host,
        port=port,
        max_connections=args.max_connections,
        protocol_max=protocol_max,
    ).start()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, handle_signal)
    offered = [
        v
        for v in SUPPORTED_PROTOCOLS
        if protocol_max is None or v <= int(protocol_max)
    ]
    print(
        json.dumps(
            {
                "ok": True,
                "op": "listening",
                "host": server.host,
                "port": server.port,
                "protocol": PROTOCOL_VERSION,
                "protocols": offered,
                "read_only": args.read_only,
                "generation": service.generation,
            }
        ),
        flush=True,
    )
    try:
        stop.wait()
    finally:
        server.close()
        service.close()
    print(
        json.dumps(
            {
                "ok": True,
                "op": "stopped",
                "served": server.stats.requests_served,
                "connections": server.stats.connections_accepted,
            }
        ),
        flush=True,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-running request server over one store.

    The service is fronted by a socket server on ``--listen HOST:PORT``
    speaking the wire protocol of ``docs/PROTOCOL.md`` (JSON v1 plus the
    negotiated binary v2 data plane; ``--protocol 1`` pins it to
    JSON-only during mixed-version rollouts); remote clients (``repro
    connect`` or :class:`ServiceClient`) drive it until SIGINT/SIGTERM.
    Runs of consecutive query requests in a ``batch`` frame are served
    across ``--workers`` threads.  The writer process holds the store's
    single-writer lock; start any number of ``--read-only`` processes
    alongside it for concurrent serving.
    """
    from repro.service import CompactionPolicy, QueryService

    if args.read_only and (args.compact_after is not None or args.max_batch is not None):
        raise SystemExit(
            "--compact-after/--max-batch configure the writer; they have no "
            "effect with --read-only"
        )
    policy = None
    if args.compact_after is not None:
        policy = CompactionPolicy(max_wal_records=args.compact_after)
    _apply_trace_flags(args)
    _apply_chaos_flag(args)
    service = QueryService(
        args.path,
        read_only=args.read_only,
        num_workers=args.workers,
        max_batch=args.max_batch if args.max_batch is not None else 64,
        compaction=policy,
    )
    metrics_server = _start_metrics_server(args, readiness=service.readiness)
    try:
        return _serve_socket(service, args)
    finally:
        if metrics_server is not None:
            metrics_server.close()


def _apply_trace_flags(args: argparse.Namespace) -> None:
    """Install the process tracer from ``--trace-sample-rate``/``--trace-slow-ms``.

    Must run before services are constructed — components bind the
    process tracer once at construction time.  With neither flag set the
    default (disabled) tracer stays in place and tracing costs nothing.
    """
    rate = getattr(args, "trace_sample_rate", None)
    slow_ms = getattr(args, "trace_slow_ms", None)
    if rate is None and slow_ms is None:
        return
    from repro.obs import Tracer, set_tracer

    set_tracer(Tracer(sample_rate=rate or 0.0, slow_ms=slow_ms))


def _apply_chaos_flag(args: argparse.Namespace) -> None:
    """Enable remote failpoint control (the ``chaos`` wire op) on request.

    ``--chaos`` sets ``REPRO_CHAOS=1`` in this process's environment so
    :func:`repro.chaos.failpoints.remote_control_enabled` answers true —
    and so any subprocess this server spawns inherits the setting.  Off
    by default: a production server must not be chaos-injectable over
    the wire by accident.
    """
    if getattr(args, "chaos", False):
        from repro.chaos.failpoints import CONTROL_ENV_VAR

        os.environ[CONTROL_ENV_VAR] = "1"


def _start_metrics_server(args: argparse.Namespace, readiness=None):
    """Start the HTTP ``/metrics`` + ``/healthz`` + ``/readyz`` listener
    when ``--metrics-port`` asks; ``readiness`` backs ``GET /readyz``."""
    port = getattr(args, "metrics_port", None)
    if port is None:
        return None
    from repro.obs import MetricsHTTPServer, register_process_metrics

    register_process_metrics()
    server = MetricsHTTPServer(port=port, readiness=readiness).start()
    print(
        json.dumps(
            {
                "ok": True,
                "op": "metrics-listening",
                "host": server.address[0],
                "port": server.address[1],
                "url": server.url,
            }
        ),
        flush=True,
    )
    return server


def _cmd_connect(args: argparse.Namespace) -> int:
    """Drive ad-hoc queries against a ``serve`` server.

    With ``--s`` this is a one-shot remote metric query (``query``,
    served over the wire).  Without it, request objects are read as JSONL
    (stdin or ``--requests``) and proxied over the socket one response
    line per request — runs of consecutive query requests travel as a
    single ``batch`` frame, so a prepared request file costs one round
    trip per run instead of one per line.

    The connection negotiates the highest common protocol version
    (``--protocol 1`` pins JSON-only v1).  Proxied JSONL requests stay
    plain JSON in both directions regardless: the proxy never asks for
    ``columns``/``raw`` responses, whose numpy/bytes payloads have no
    JSONL rendering — replication payloads such as ``repl_fetch`` arrive
    base64-encoded exactly as on a v1 connection.  ``repro stats
    --address`` shows what a live connection negotiated
    (``transport.negotiated``).
    """
    with _peer(args.address, args, protocol_max=args.protocol) as client:
        if args.s is not None:
            values = client.metric(args.s, args.metric)
            info = client.server_info
            print(
                f"{len(values)} hyperedges in E_{args.s} served by "
                f"{args.address} ({'replica' if info.get('read_only') else 'writer'}, "
                f"generation {client.generation()})"
            )
            _print_top(values, args.top, f"{args.metric} (s={args.s})", str)
            return 0
        if args.requests is None:
            _proxy_jsonl(client, sys.stdin, interactive=True)
        else:
            with open(args.requests, "r", encoding="utf-8") as stream:
                _proxy_jsonl(client, stream, interactive=False)
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch and render finished traces from a serving peer.

    One idempotent ``trace`` round trip; each trace renders as a span
    tree with per-span start offsets and durations (see
    :func:`repro.obs.render_trace`).  A server started with
    ``--trace-slow-ms`` keeps every request over that threshold, marked
    ``[slow]``; ``--trace-id`` narrows to one trace.  Exit code 1 when
    the buffer holds no matching trace.
    """
    from repro.obs import render_trace

    with _peer(args.address, args) as client:
        traces = client.traces(trace_id=args.trace_id, limit=args.limit)
    if not traces:
        suffix = f" with id {args.trace_id}" if args.trace_id else ""
        print(
            f"no finished traces{suffix} on {args.address} "
            "(is tracing enabled? see serve --trace-sample-rate)"
        )
        return 1
    for index, trace in enumerate(traces):
        if index:
            print()
        print(render_trace(trace))
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Mirror a remote store over the socket protocol (no shared filesystem).

    Connects to any serving peer (``serve`` writer or replica), pulls the
    snapshot + WAL into ``--store`` (full fetch the first time,
    checksum-driven delta afterwards), and either exits after the sync
    (bootstrap/backup mode) or — with ``--serve HOST:PORT`` — serves the
    mirror as a hot-reloading remote-fed read replica: queries re-check
    the peer's change token within ``--poll-interval`` and pull deltas,
    and a background thread does the same while idle.  The mirror
    directory's writer lock is held for the duration, so a local writer
    (or second ``replicate``) cannot corrupt it.

    The peer must negotiate protocol 2 — delta syncs use the byte-offset
    WAL cursor and raw binary file chunks; against a v1-only peer the sync
    fails with a typed "replication needs protocol 2" error.
    """
    import threading

    from repro.service import QueryService
    from repro.service.transport import TransportError
    from repro.store import StoreMirror
    from repro.store.format import StoreError

    _apply_chaos_flag(args)

    def print_synced(store: str, report) -> None:
        print(
            json.dumps(
                {
                    "ok": True,
                    "op": "synced",
                    "store": store,
                    "generation": report.generation,
                    "full_sync": report.full_sync,
                    "fetched_files": report.fetched_files,
                    "reused_files": report.reused_files,
                    "fetched_bytes": report.fetched_bytes,
                    "wal_records": report.wal_records,
                }
            ),
            flush=True,
        )

    if not args.serve:
        with _peer(args.source, args) as client:
            try:
                mirror = StoreMirror(client, args.store)
                lock = _writer_lock(args.store, "repro-replicate")
            except (StoreError, OSError) as exc:
                # OSError: --store points at a file / an unwritable directory.
                raise SystemExit(str(exc)) from None
            try:
                print_synced(mirror.path, mirror.sync())
            except (TransportError, StoreError) as exc:
                raise SystemExit(f"sync failed: {exc}") from None
            finally:
                lock.release()
        return 0

    # Serving mode: one remote-fed service (QueryService over a
    # RemoteReadReplica) owns the peer connection, the mirror and the
    # directory's writer lock from the first sync on; every query's path
    # includes the peer staleness check (a ``replica.sync_check`` span).
    _apply_trace_flags(args)
    try:
        service = QueryService(
            args.store,
            read_only=True,
            remote_source=_parse_address(args.source),
            num_workers=args.workers,
            replica_poll_interval=args.poll_interval,
        )
    except (TransportError, StoreError, OSError) as exc:
        raise SystemExit(f"replica start failed: {exc}") from None
    print_synced(service.path, service.replica.first_sync)
    # Dialled with the client defaults (= these flags' defaults); later
    # reconnects of the one peer connection honour the flags.
    peer = service.replica.client
    peer.timeout, peer.connect_retries = args.timeout, args.connect_retries
    stop = threading.Event()

    def follow() -> None:
        """Keep the mirror fresh while no queries arrive.

        The same rate-limited check queries run, so the lag gauges and
        ``/readyz`` track the peer on an idle replica and an outage is
        recorded and backed off once for both; the local mirror keeps
        serving its last good state."""
        while not stop.wait(max(args.poll_interval, 0.05)):
            try:
                service.replica.refresh()
            except (StoreError, OSError):
                pass  # the local reload raced a sync; the next round retries

    syncer = threading.Thread(target=follow, name="repro-replicate-sync", daemon=True)
    syncer.start()
    args.listen = args.serve
    args.read_only = True
    metrics_server = _start_metrics_server(
        args,
        readiness=lambda: service.readiness(max_generation_lag=args.ready_max_lag),
    )
    try:
        return _serve_socket(service, args)
    finally:
        stop.set()
        syncer.join(timeout=10)
        if metrics_server is not None:
            metrics_server.close()


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="High-order (s-)line graphs of non-uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the built-in surrogate datasets")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser(
        "stats",
        help="print Table IV-style hypergraph characteristics, or — with "
        "--address — a remote server's stats payload",
    )
    _add_input_arguments(p)
    p.add_argument(
        "--address",
        metavar="HOST:PORT",
        default=None,
        help="print a 'serve' server's stats instead of dataset "
        "characteristics",
    )
    p.add_argument(
        "--raw",
        action="store_true",
        help="with --address: print the raw Prometheus text exposition "
        "instead of the stats rows",
    )
    _add_dial_arguments(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("slinegraph", help="compute an s-line graph edge list")
    _add_input_arguments(p)
    p.add_argument("--s", type=int, required=True, help="overlap threshold")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="hashmap")
    p.add_argument("--output", help="write the edge list to this file instead of stdout")
    p.set_defaults(func=_cmd_slinegraph)

    p = sub.add_parser("components", help="report s-connected components")
    _add_input_arguments(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--min-size", type=int, default=2, help="smallest component to report")
    p.add_argument("--limit", type=int, default=20, help="print at most this many components")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("variants", help="run the Table III algorithm variants")
    _add_input_arguments(p)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(func=_cmd_variants)

    p = sub.add_parser(
        "query",
        help="rank hyperedges by one s-measure from the overlap-index "
        "engine (dataset, file or store)",
    )
    _add_input_arguments(p).add_argument(
        "--path",
        help="warm-serve from this store directory (see 'index build') "
        "instead of --dataset/--input",
    )
    p.add_argument("--s", type=int, required=True, help="overlap threshold")
    p.add_argument(
        "--metric", choices=sorted(METRIC_FUNCTIONS), default="connected_components"
    )
    p.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default=BUILD_ALGORITHM,
        help="index build kernel (a store keeps the index it was built with)",
    )
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sweep", help="batched multi-s sweep from one overlap-index build")
    _add_input_arguments(p)
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument(
        "--metrics",
        default="connected_components",
        help="comma-separated Stage-5 metrics (empty string for none)",
    )
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=BUILD_ALGORITHM)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("index", help="manage persistent overlap-index stores")
    isub = p.add_subparsers(dest="index_command", required=True)

    ip = isub.add_parser("build", help="build and persist a sharded index snapshot")
    _add_input_arguments(ip)
    ip.add_argument("--path", required=True, help="store directory to create")
    ip.add_argument("--shards", type=int, default=4, help="number of row-block shards")
    ip.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=BUILD_ALGORITHM)
    ip.set_defaults(func=_cmd_index_build)

    ip = isub.add_parser("info", help="print a store's manifest and WAL state")
    ip.add_argument("--path", required=True, help="store directory")
    ip.set_defaults(func=_cmd_index_info)

    ip = isub.add_parser("compact", help="fold the WAL into a fresh snapshot")
    ip.add_argument("--path", required=True, help="store directory")
    ip.add_argument("--shards", type=int, default=None, help="reshard during compaction")
    ip.set_defaults(func=_cmd_index_compact)

    p = sub.add_parser(
        "serve",
        help="long-running query/update server over a store on a TCP "
        "address (single writer + any number of --read-only replicas)",
    )
    p.add_argument("--path", required=True, help="store directory")
    p.add_argument(
        "--read-only",
        action="store_true",
        help="serve as a hot-reloading read replica (no writer lock taken)",
    )
    p.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="serve the length-prefixed frame protocol on this TCP address "
        "(port 0 picks an ephemeral port, printed on the 'listening' line)",
    )
    _add_listener_arguments(p)
    p.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="admission-queue group-commit size (writer mode; default 64)",
    )
    p.add_argument(
        "--compact-after",
        type=int,
        default=None,
        help="background-compact once the WAL holds this many records",
    )
    p.add_argument(
        "--protocol",
        type=int,
        default=None,
        metavar="N",
        help="highest protocol version to negotiate (1 pins the JSON-only "
        "v1 data plane; default: all supported — see docs/PROTOCOL.md)",
    )
    _add_trace_arguments(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "connect",
        help="drive ad-hoc queries against a 'serve' server",
    )
    p.add_argument(
        "--address", required=True, metavar="HOST:PORT", help="server address"
    )
    p.add_argument(
        "--s", type=int, default=None, help="one-shot query: overlap threshold"
    )
    p.add_argument(
        "--metric", choices=sorted(METRIC_FUNCTIONS), default="connected_components"
    )
    p.add_argument("--top", type=int, default=10)
    p.add_argument(
        "--requests",
        help="JSONL request file to proxy over the socket (default: stdin)",
    )
    _add_dial_arguments(p)
    p.add_argument(
        "--protocol",
        type=int,
        default=None,
        metavar="N",
        help="highest protocol version to offer (1 pins the JSON-only v1 "
        "data plane; default: all supported)",
    )
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser(
        "replicate",
        help="mirror a remote store over the socket protocol — bootstrap a "
        "local copy, or keep serving it as a read replica with --serve",
    )
    p.add_argument(
        "--from",
        dest="source",
        required=True,
        metavar="HOST:PORT",
        help="serving peer to replicate from (writer or replica server)",
    )
    p.add_argument(
        "--store",
        required=True,
        help="local mirror directory (created if missing; locked while syncing)",
    )
    p.add_argument(
        "--serve",
        metavar="HOST:PORT",
        default=None,
        help="after the first sync, serve the mirror on this address and "
        "keep pulling deltas (port 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="seconds between change-token polls of the peer (with --serve)",
    )
    _add_listener_arguments(p)
    _add_dial_arguments(p)
    p.add_argument(
        "--ready-max-lag",
        type=int,
        default=1,
        metavar="N",
        help="with --serve and --metrics-port: /readyz reports 503 once "
        "the replica runs more than N generations behind the peer",
    )
    _add_trace_arguments(p)
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser(
        "trace",
        help="fetch and render request traces from a 'serve' server "
        "(enable with serve/replicate --trace-sample-rate or --trace-slow-ms)",
    )
    p.add_argument(
        "--address", required=True, metavar="HOST:PORT", help="server address"
    )
    p.add_argument(
        "--trace-id",
        default=None,
        help="render only this trace (ids head each rendered trace)",
    )
    p.add_argument(
        "--limit", type=int, default=5, help="newest traces to fetch (default 5)"
    )
    _add_dial_arguments(p)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

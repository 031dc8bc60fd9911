"""Distributed tracing across the serving stack.

Covers the per-tier spans (server, admission wait, WAL fsync, engine,
replica sync check), wire-context propagation — including both
backward-compatibility directions: a pre-tracing client frame against a
tracing server, and a tracing client against a handler that strips the
field — the ``trace`` op / ``repro trace`` CLI, slow-only retention, and
the end-to-end chained-replica trace the feature exists for.
"""

import json

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.service import QueryService
from repro.service.transport import ServiceClient, SocketServer
from repro.store.store import IndexStore


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


@pytest.fixture
def registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


@pytest.fixture
def tracer():
    """Every component constructed in the test records at rate 1."""
    with use_tracer(Tracer(sample_rate=1.0)) as t:
        yield t


def spans_by_name(trace):
    return {span["name"]: span for span in trace["spans"]}


class TestServerSpans:
    def test_request_produces_a_server_root_span(self, store_path, registry, tracer):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    traces = client.traces()
        roots = [t["root"] for t in traces]
        assert "server.metric" in roots
        trace = next(t for t in traces if t["root"] == "server.metric")
        names = spans_by_name(trace)
        root = names["server.metric"]
        assert root["parent_id"] == ""
        assert root["attributes"]["op"] == "metric"
        # The engine compute is a descendant of the server span.
        assert names["engine.metric"]["parent_id"] == root["span_id"]

    def test_failed_request_marks_the_root_errored(
        self, store_path, registry, tracer
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.call({"op": "metric", "s": 2, "metric": "nope"})
                    traces = client.traces()
        trace = next(t for t in traces if t["root"] == "server.metric")
        assert spans_by_name(trace)["server.metric"]["status"] == "error"

    def test_durable_add_traces_queue_wait_and_fsync(
        self, store_path, registry, tracer
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.add([0, 1, 2], wait=True)
                    traces = client.traces()
        trace = next(t for t in traces if t["root"] == "server.add")
        names = spans_by_name(trace)
        root = names["server.add"]
        # The queue wait is backfilled from submit/claim stamps, and the
        # group-commit fsync is attributed across the writer thread.
        assert names["admission.queue_wait"]["parent_id"] == root["span_id"]
        assert names["wal.fsync"]["parent_id"] == root["span_id"]

    def test_trace_op_filters_by_id_and_reports_stats(
        self, store_path, registry, tracer
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    client.components(2)
                    all_traces = client.traces(limit=50)
                    target = all_traces[0]["trace_id"]
                    only = client.traces(trace_id=target, limit=50)
                    response = client.call({"op": "trace"})
        assert {t["trace_id"] for t in only} == {target}
        assert response["tracing"]["enabled"] is True
        assert response["tracing"]["kept"] >= 2

    def test_stats_carries_tracing_counters(self, store_path, registry, tracer):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    stats = client.stats()
        tracing = stats["tracing"]
        assert tracing["enabled"] and tracing["sample_rate"] == 1.0
        assert tracing["kept"] >= 1

    def test_untraced_deployment_reports_disabled(self, store_path, registry):
        with QueryService(store_path) as svc:
            tracing = svc.stats()["tracing"]
        assert tracing["enabled"] is False
        assert tracing["kept"] == 0


class TestWireCompatibility:
    def test_pre_tracing_client_frame_against_a_tracing_server(
        self, store_path, registry
    ):
        """A PR-6-era client never sends the ``trace`` field; the tracing
        server starts a fresh root and serves the request unchanged."""
        with use_tracer(Tracer(sample_rate=1.0)):
            svc = QueryService(store_path)
            server = SocketServer(svc).start()
        # The client is constructed under the default (disabled) tracer —
        # exactly what an old client's frames look like on the wire.
        try:
            with ServiceClient(*server.address) as client:
                response = client.call(
                    {"op": "metric", "s": 2, "metric": "connected_components"}
                )
                assert response["ok"]
                traces = client.traces()
        finally:
            server.close()
            svc.close()
        trace = next(t for t in traces if t["root"] == "server.metric")
        assert spans_by_name(trace)["server.metric"]["parent_id"] == ""

    def test_tracing_client_against_a_handler_that_strips_the_field(
        self, store_path, registry, tracer, monkeypatch
    ):
        """A pre-tracing server drops the unknown ``trace`` field on the
        floor; the request must round-trip cleanly regardless."""
        with QueryService(store_path) as svc:
            seen = {}
            original = svc.execute

            def stripping_execute(request):
                request = dict(request)
                seen["had_trace"] = "trace" in request
                request.pop("trace", None)
                return original(request)

            monkeypatch.setattr(svc, "execute", stripping_execute)
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    # An active sampled span is what makes the client
                    # stamp the field (chained replicas do this).
                    with tracer.start_request("test.root"):
                        response = client.call(
                            {"op": "metric", "s": 2, "metric": "connected_components"}
                        )
        assert response["ok"]
        assert seen["had_trace"] is True

    def test_client_context_joins_client_and_server_spans(
        self, store_path, registry, tracer
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    with tracer.start_request("test.root") as root:
                        client.metric(2, "connected_components")
                    traces = tracer.finished_traces(
                        trace_id=root.trace_id, limit=None
                    )
        # Same process: the client-side trace record and the server-side
        # one land in the same buffer, sharing the trace id.
        assert len(traces) == 2
        client_side = next(t for t in traces if t["root"] == "test.root")
        server_side = next(t for t in traces if t["root"] == "server.metric")
        client_span = spans_by_name(client_side)["client.metric"]
        # The server's root is parented under the client's span.
        assert spans_by_name(server_side)["server.metric"]["parent_id"] == (
            client_span["span_id"]
        )


class TestChainedReplicaTrace:
    def test_one_trace_spans_replica_server_sync_check_and_engine(
        self, store_path, registry, tracer, tmp_path
    ):
        """The acceptance path: a query against a remote-fed replica
        produces one trace id covering the replica's server span, the
        mirror staleness check, and the engine compute — and, because
        the sync check polls the writer, the writer's server span too."""
        with QueryService(store_path, max_batch=16) as writer:
            with SocketServer(writer) as upstream:
                with QueryService(
                    str(tmp_path / "mirror"),
                    read_only=True,
                    remote_source=upstream.address,
                ) as replica_svc:
                    with SocketServer(replica_svc) as replica_server:
                        with ServiceClient(*replica_server.address) as client:
                            client.metric(2, "connected_components")
                            traces = client.traces(limit=50)
        trace = next(t for t in traces if t["root"] == "server.metric")
        names = spans_by_name(trace)
        root = names["server.metric"]
        sync_check = names["replica.sync_check"]
        engine = names["engine.metric"]
        assert sync_check["parent_id"] == root["span_id"]
        assert engine["parent_id"] == root["span_id"]
        # The staleness poll crossed the wire to the writer under the
        # same trace id (same process here, so same buffer).
        writer_side = [
            t
            for t in traces
            if t["trace_id"] == trace["trace_id"] and t["root"] == "server.stats"
        ]
        assert writer_side, "writer's span did not join the replica's trace"
        poll = spans_by_name(writer_side[0])["server.stats"]
        assert poll["parent_id"] == spans_by_name(trace)["client.stats"]["span_id"]


class TestSlowOnlyTracing:
    def test_slow_requests_keep_a_trace_with_their_context(
        self, store_path, registry
    ):
        """``--trace-slow-ms`` alone (no sampling) keeps every request over
        the threshold with its op, the engine span's s / metric, and a
        trace id that resolves to it."""
        with use_tracer(Tracer(slow_ms=0.0)):
            with QueryService(store_path) as svc:
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        client.call({"op": "metric", "s": 3, "metric": "pagerank"})
                        trace = next(
                            t
                            for t in client.traces(limit=50)
                            if t["root"] == "server.metric"
                        )
                        linked = client.traces(trace_id=trace["trace_id"])
                        tracing = client.stats()["tracing"]
        assert trace["slow"] and not trace["sampled"]
        assert tracing["kept_slow"] >= 1 and tracing["sample_rate"] == 0.0
        assert [t["trace_id"] for t in linked] == [trace["trace_id"]]
        names = spans_by_name(trace)
        assert names["server.metric"]["attributes"]["op"] == "metric"
        engine = names["engine.metric"]["attributes"]
        assert (engine["s"], engine["metric"]) == (3, "pagerank")

    def test_disabled_by_default(self, store_path, registry):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    stats = client.stats()
                    traces = client.traces()
        assert traces == []
        assert stats["tracing"]["enabled"] is False
        assert stats["tracing"]["kept"] == stats["tracing"]["kept_slow"] == 0
        assert "slow_queries" not in stats

    def test_fast_requests_stay_out(self, store_path, registry):
        tracer = Tracer(slow_ms=60_000.0)
        with use_tracer(tracer):
            with QueryService(store_path) as svc:
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        client.metric(2, "connected_components")
        stats = tracer.stats()
        assert tracer.finished_traces(limit=None) == []
        assert stats["kept_slow"] == stats["kept"] == 0
        assert stats["discarded"] >= 1

    @pytest.mark.parametrize("columns", [False, True])
    def test_wire_metric_requests_keep_their_metric_name(
        self, store_path, registry, columns
    ):
        tracer = Tracer(slow_ms=0.0)
        request = {"op": "metric", "s": 3, "metric": "pagerank", "columns": columns}
        with use_tracer(tracer):
            with QueryService(store_path) as svc:
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        assert client.call(request)["ok"]
        trace = next(
            t
            for t in tracer.finished_traces(limit=None)
            if t["root"] == "server.metric"
        )
        assert trace["slow"]
        engine = spans_by_name(trace)["engine.metric"]["attributes"]
        assert (engine["s"], engine["metric"]) == (3, "pagerank")

    def test_slow_keeps_are_bounded_newest_first_out(self, store_path, registry):
        tracer = Tracer(slow_ms=0.0, buffer_capacity=4)
        with use_tracer(tracer):
            with QueryService(store_path) as svc:
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        for s in range(1, 9):
                            client.call(
                                {"op": "metric", "s": s, "metric": "pagerank"}
                            )
        kept = tracer.finished_traces(limit=None)
        assert len(kept) == 4
        # Oldest keeps fell off: the survivors are the most recent.
        assert [
            spans_by_name(t)["engine.metric"]["attributes"]["s"] for t in kept
        ] == [5, 6, 7, 8]
        assert tracer.stats()["kept_slow"] >= 8

    def test_sampled_requests_are_kept_without_being_slow(
        self, store_path, registry
    ):
        tracer = Tracer(sample_rate=1.0, slow_ms=60_000.0)
        with use_tracer(tracer):
            with QueryService(store_path) as svc:
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        client.metric(2, "connected_components")
        trace = next(
            t
            for t in tracer.finished_traces(limit=None)
            if t["root"] == "server.metric"
        )
        assert trace["sampled"] and not trace["slow"]
        assert tracer.stats()["kept_slow"] == 0

    def test_in_process_calls_leave_no_trace(self, store_path, registry):
        """The server span is the sampling point: a direct ``QueryService``
        call under a slow-only tracer records nothing."""
        tracer = Tracer(slow_ms=0.0)
        with use_tracer(tracer):
            with QueryService(store_path) as svc:
                svc.metric(2, "connected_components")
        assert tracer.finished_traces(limit=None) == []
        assert tracer.stats()["requests"] == tracer.stats()["spans"] == 0


class TestTraceCLI:
    def test_trace_command_renders_span_trees(
        self, store_path, registry, tracer, capsys
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    target = client.traces()[0]["trace_id"]
                address = f"{server.host}:{server.port}"
                assert main(["trace", "--address", address]) == 0
                out = capsys.readouterr().out
                assert f"trace {target}" in out
                assert "server.metric" in out and "engine.metric" in out

                assert main(
                    ["trace", "--address", address, "--trace-id", target]
                ) == 0
                out = capsys.readouterr().out
                assert f"trace {target}" in out

    def test_trace_command_reports_an_empty_buffer(
        self, store_path, registry, tracer, capsys
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                address = f"{server.host}:{server.port}"
                assert main(
                    ["trace", "--address", address, "--trace-id", "ab" * 8]
                ) == 1
        assert "no finished traces" in capsys.readouterr().out

    def test_stats_command_prints_tracing_rows(
        self, store_path, registry, tracer, capsys
    ):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                assert main(
                    ["stats", "--address", f"{server.host}:{server.port}"]
                ) == 0
        rows = dict(
            line.split(None, 1) for line in capsys.readouterr().out.splitlines()
        )
        assert rows["tracing.sample_rate"] == "1.0"
        assert int(rows["tracing.kept"]) >= 1


class TestStructuredLogs:
    def test_json_lines_carry_the_active_trace_ids(self, registry, tracer, capsys):
        import logging

        from repro.utils.log import JsonLineFormatter, get_logger

        logger = get_logger("test")
        handler = logging.StreamHandler()
        handler.setFormatter(JsonLineFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with tracer.start_request("server.metric") as span:
                logger.info("inside")
            logger.info("outside")
        finally:
            logger.removeHandler(handler)
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        inside = next(line for line in lines if line["message"] == "inside")
        outside = next(line for line in lines if line["message"] == "outside")
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id
        assert inside["level"] == "INFO" and inside["logger"] == "repro.test"
        assert "trace_id" not in outside

    def test_enable_verbose_swaps_formats_without_stacking_handlers(self):
        import logging

        from repro.utils.log import JsonLineFormatter, enable_verbose, get_logger

        logger = enable_verbose(json_lines=True)
        try:
            count = len(
                [h for h in logger.handlers if isinstance(h, logging.StreamHandler)]
            )
            assert isinstance(logger.handlers[-1].formatter, JsonLineFormatter)
            enable_verbose(json_lines=False)
            assert not isinstance(logger.handlers[-1].formatter, JsonLineFormatter)
            enable_verbose(json_lines=True)
            assert (
                len(
                    [
                        h
                        for h in logger.handlers
                        if isinstance(h, logging.StreamHandler)
                    ]
                )
                == count
            )
        finally:
            for handler in list(get_logger().handlers):
                get_logger().removeHandler(handler)

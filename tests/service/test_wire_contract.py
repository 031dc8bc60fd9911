"""The wire contract (``repro.service.contract``), checked by behaviour.

The op and error tables are declared once and everything else derives
from them, so there are no copies left to compare.  These tests drive the
derived behaviour instead: per row, what the client does after a dropped
response and which metric label the server observes; per exception class,
which code the response carries; and that a handler/row mismatch cannot
even be defined.
"""

import socket

import numpy as np
import pytest

from repro.chaos import failpoints as fp
from repro.obs import MetricsRegistry, use_registry
from repro.service import QueryService, StoreLockHeldError, contract
from repro.service.transport import ServiceClient, SocketServer, TransportError
from repro.service.transport.client import _is_idempotent
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    encode_binary_frame,
    encode_frame,
    hello_request,
    recv_frame,
    send_frame,
)
from repro.store.format import ReadOnlyStoreError, StoreError
from repro.store.replication import ReplicationStaleError
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def clean_failpoints():
    fp.reset()
    yield
    fp.reset()


class TestEveryContractRow:
    @pytest.mark.parametrize("row", contract.OPS, ids=lambda row: row.name)
    def test_retry_and_label_follow_the_row(self, store_path, row):
        """The double-apply guard, exercised: the server executes the
        request, its response is dropped, and only an idempotent row is
        transparently sent a second time."""
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(store_path) as svc, SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    fp.activate("transport.send", "drop", count=1)
                    if row.idempotent:
                        response = client.call({"op": row.name})
                        assert response["op"] == row.name
                        served = 2
                    else:
                        with pytest.raises(TransportError, match="not idempotent"):
                            client.call({"op": row.name})
                        served = 1
                assert server.stats.requests_served == served
        latency = registry.get("repro_request_seconds")
        assert latency.labels(op=row.name).count == served
        assert latency.labels(op="other").count == 0

    def test_refused_chaos_op_counts_under_its_own_label(self, store_path):
        with use_registry(MetricsRegistry()) as registry:
            with QueryService(store_path) as svc:  # chaos control disabled
                with SocketServer(svc) as server:
                    with ServiceClient(*server.address) as client:
                        response = client.call({"op": "chaos"})
        assert not response["ok"]
        errors = registry.get("repro_request_errors_total")
        assert errors.labels(op="chaos", code="bad_request").value == 1


def _service_class(op_names):
    return type(
        "Service", (), {f"_op_{name}": lambda self, request: {} for name in op_names}
    )


class TestHandlersMatchRows:
    def test_one_handler_per_row_binds(self):
        cls = contract.bind_handlers(_service_class(contract.OP_NAMES))
        assert tuple(cls._handlers) == contract.OP_NAMES

    def test_row_without_handler_is_rejected_at_class_definition(self):
        with pytest.raises(TypeError, match=r"missing \['chaos'\]"):
            contract.bind_handlers(_service_class(contract.OP_NAMES[:-1]))

    def test_handler_without_row_is_rejected_at_class_definition(self):
        with pytest.raises(TypeError, match=r"without a row \['teleport'\]"):

            @contract.bind_handlers
            class Surplus(QueryService):
                def _op_teleport(self, request):  # pragma: no cover
                    return {}


class _StaleByAnotherName(ReplicationStaleError):
    pass


ERROR_CASES = [
    pytest.param(_StaleByAnotherName("gen 3 superseded"), "stale_generation", id="stale-subclass"),
    pytest.param(StoreLockHeldError("held by pid 1"), "unavailable", id="lock-held"),
    pytest.param(ReadOnlyStoreError("replica"), "read_only", id="read-only-beats-store"),
    pytest.param(StoreError("bad shard"), "unavailable", id="store-beats-validation"),
    pytest.param(ValidationError("s must be >= 1"), "bad_request", id="validation"),
    pytest.param(KeyError("s"), "bad_request", id="key"),
    pytest.param(RuntimeError("boom"), "internal", id="unrelated"),
]


class TestErrorCodeFollowsTheClass:
    @pytest.mark.parametrize("exc, code", ERROR_CASES)
    def test_in_process_and_wire_payloads_carry_the_same_code(
        self, store_path, monkeypatch, exc, code
    ):
        def failing_stats():
            raise exc

        with QueryService(store_path) as svc, SocketServer(svc) as server:
            monkeypatch.setattr(svc, "stats", failing_stats)
            local = svc.execute({"op": "stats"})
            with ServiceClient(*server.address) as client:
                remote = client.call({"op": "stats"})
        assert local["ok"] is False and local["code"] == code
        assert remote == local
        assert local["error"].startswith(type(exc).__name__ + ": ")


def _raw_connection(address, protocols):
    sock = socket.create_connection(address, timeout=10.0)
    hello = hello_request()
    if protocols:
        hello["protocols"] = protocols
    send_frame(sock, hello)
    reply = recv_frame(sock)
    assert reply["ok"] and reply["negotiated"] == max(protocols or [1]), reply
    return sock


class TestNonStringOpIsJustAnUnknownOp:
    @pytest.mark.parametrize("protocols", [None, [1, 2]], ids=["v1", "v2"])
    @pytest.mark.parametrize("bad_op", [["x"], {"x": 1}], ids=["list", "object"])
    def test_batch_answers_typed_and_connection_survives(
        self, store_path, protocols, bad_op
    ):
        """Regression: the unhashable ``op`` of a sub-request raised
        ``TypeError`` out of the handler thread — the peer read a bare EOF
        and no error was counted."""
        with QueryService(store_path) as svc, SocketServer(svc) as server:
            sock = _raw_connection(server.address, protocols)
            try:
                send_frame(
                    sock,
                    {"op": "batch", "requests": [{"op": bad_op}, {"op": "components", "s": 1}]},
                )
                response = recv_frame(sock)
                assert response is not None, "handler thread died: bare EOF"
                assert response["ok"] and response["op"] == "batch"
                refused, served = response["results"]
                assert refused["ok"] is False
                assert refused["code"] == "bad_request"
                assert "unknown op" in refused["error"]
                assert served["ok"] and served["count"] >= 1
                send_frame(sock, {"op": bad_op})
                single = recv_frame(sock)
                assert single["code"] == "bad_request"
                send_frame(sock, {"op": "components", "s": 1})
                assert recv_frame(sock)["ok"]
            finally:
                sock.close()

    def test_client_retry_test_does_not_raise(self):
        assert _is_idempotent({"op": ["x"]}) is False
        assert _is_idempotent({"op": "batch", "requests": [{"op": {"x": 1}}]}) is False
        assert _is_idempotent({"op": "batch", "requests": [{"op": "stats"}]}) is True
        assert _is_idempotent({"op": "batch", "requests": [{"op": "add"}]}) is False


def _reference_metric_response(engine, s, name, generation, columns):
    """The ``metric`` response as it was derived before the engine's cached
    columns were served as they are: the vector re-keyed into an
    ``{int: float}`` dict one element at a time, then taken apart again
    (``fromiter`` + stable ``argsort`` for the column plane, ``sorted``
    items for the JSON plane)."""
    _, mapping = engine.squeezed_graph(s)
    values = {
        int(mapping.new_to_old[i]): float(v)
        for i, v in enumerate(engine.metric(s, name))
    }
    response = {"ok": True, "op": "metric", "s": s, "metric": name, "generation": generation}
    if columns:
        ids = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
        vals = np.fromiter(values.values(), dtype=np.float64, count=len(values))
        order = np.argsort(ids, kind="stable")
        response["columns"] = True
        response["edge_ids"] = ids[order]
        response["values"] = vals[order]
    else:
        response["values"] = {str(k): float(v) for k, v in sorted(values.items())}
    return response


class TestMetricWireIdentity:
    """Serving the cached ``(new_to_old, values)`` columns must not move a
    byte on either plane, for int-labelled and float-valued metrics alike,
    on the writer and on a read-only service."""

    @pytest.mark.parametrize("read_only", [False, True], ids=["writer", "read-only"])
    @pytest.mark.parametrize("name", ["connected_components", "pagerank"])
    def test_v1_and_v2_frames_equal_the_reference_derivation(
        self, store_path, read_only, name
    ):
        with QueryService(store_path) as writer:
            writer.submit_add([0, 1, 2, 3]).result()
            writer.submit_remove(2).result()
        with QueryService(store_path, read_only=read_only) as svc:
            for s in (1, 2, 3, 50):  # 50: nothing overlaps that much -> empty columns
                for columns, encode in ((False, encode_frame), (True, encode_binary_frame)):
                    request = {"op": "metric", "s": s, "metric": name}
                    if columns:
                        request["columns"] = True
                    served = svc.execute(request)
                    reference = _reference_metric_response(
                        svc.engine, s, name, svc.generation, columns
                    )
                    assert list(served) == list(reference)
                    assert encode(served, DEFAULT_MAX_FRAME_BYTES) == encode(
                        reference, DEFAULT_MAX_FRAME_BYTES
                    ), (s, columns)

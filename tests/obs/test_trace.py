"""The dependency-free tracer: sampling, context, buffer, rendering."""

import json
import threading
import time

import pytest

from repro.obs import NOOP_SPAN, Span, TraceBuffer, Tracer, render_trace
from repro.obs import trace as trace_module
from repro.obs.trace import _valid_wire_context


class TestDisabledFastPath:
    def test_default_tracer_is_disabled(self):
        tracer = Tracer()
        assert not tracer.enabled
        with tracer.start_request("server.metric") as span:
            assert span is NOOP_SPAN
            assert not span.recording
            assert tracer.current_span() is None
        assert tracer.finished_traces() == []

    def test_noop_span_absorbs_the_span_surface(self):
        NOOP_SPAN.set_attribute("k", "v")
        NOOP_SPAN.set_status("error", "boom")
        assert NOOP_SPAN.trace_id == ""

    def test_child_without_a_recording_parent_is_noop(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_span("engine.metric") as span:
            assert span is NOOP_SPAN

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(slow_ms=-1.0)
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestSampling:
    def test_rate_one_keeps_every_request(self):
        tracer = Tracer(sample_rate=1.0)
        for _ in range(5):
            with tracer.start_request("server.metric"):
                pass
        stats = tracer.stats()
        assert stats["requests"] == 5
        assert stats["sampled"] == 5
        assert stats["kept"] == 5
        assert len(tracer.finished_traces(limit=None)) == 5

    def test_rate_zero_without_slow_keeps_nothing(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.sample_rate = 0.0  # enabled check happens per request
        assert not tracer.enabled
        with tracer.start_request("server.metric"):
            pass
        assert tracer.finished_traces() == []

    def test_slow_threshold_keeps_only_slow_requests(self):
        tracer = Tracer(sample_rate=0.0, slow_ms=5.0)
        assert tracer.enabled
        with tracer.start_request("fast"):
            pass
        with tracer.start_request("slow"):
            time.sleep(0.02)
        traces = tracer.finished_traces()
        assert [t["root"] for t in traces] == ["slow"]
        assert traces[0]["slow"] and not traces[0]["sampled"]
        stats = tracer.stats()
        assert stats["kept_slow"] == 1
        assert stats["discarded"] == 1

    def test_sampled_and_slow_flags_can_combine(self):
        tracer = Tracer(sample_rate=1.0, slow_ms=0.0)
        with tracer.start_request("req"):
            pass
        (trace,) = tracer.finished_traces()
        assert trace["sampled"] and trace["slow"]


class TestSpanTree:
    def test_nesting_records_parentage(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("server.metric") as root:
            with tracer.start_span("engine.metric", {"s": 2}) as child:
                assert tracer.current_span() is child
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
            assert tracer.current_span() is root
        (trace,) = tracer.finished_traces()
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["engine.metric"]["parent_id"] == by_name["server.metric"]["span_id"]
        assert by_name["engine.metric"]["attributes"] == {"s": 2}
        assert trace["duration_ms"] >= 0

    def test_exception_marks_the_span_errored(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with tracer.start_request("server.metric"):
                raise RuntimeError("boom")
        (trace,) = tracer.finished_traces()
        span = trace["spans"][0]
        assert span["status"] == "error"
        assert "boom" in span["detail"]

    def test_thread_local_context_is_isolated(self):
        tracer = Tracer(sample_rate=1.0)
        seen = []

        def other():
            seen.append(tracer.current_span())

        with tracer.start_request("server.metric"):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join()
        assert seen == [None]

    def test_use_span_attributes_work_to_another_thread(self):
        tracer = Tracer(sample_rate=1.0)

        def worker(span):
            with tracer.use_span(span):
                with tracer.start_span("wal.fsync"):
                    pass

        with tracer.start_request("server.add") as root:
            thread = threading.Thread(target=worker, args=(root,))
            thread.start()
            thread.join()
        (trace,) = tracer.finished_traces()
        names = {s["name"]: s for s in trace["spans"]}
        assert names["wal.fsync"]["parent_id"] == names["server.add"]["span_id"]

    def test_use_span_of_none_is_noop(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.use_span(None) as span:
            assert span is NOOP_SPAN

    def test_record_span_backfills_an_interval(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("server.add") as root:
            start = time.perf_counter() - 0.010
            span = tracer.record_span(
                "admission.queue_wait", root, start, time.perf_counter()
            )
            assert isinstance(span, Span)
        (trace,) = tracer.finished_traces()
        wait = next(s for s in trace["spans"] if s["name"] == "admission.queue_wait")
        assert wait["duration_ms"] >= 9.0
        assert wait["parent_id"] == root.span_id

    def test_record_span_without_parent_is_dropped(self):
        tracer = Tracer(sample_rate=1.0)
        assert tracer.record_span("x", None, 0.0, 1.0) is None

    def test_span_cap_counts_dropped_spans(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS_PER_TRACE", 3)
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("root"):
            for _ in range(5):
                with tracer.start_span("child"):
                    pass
        (trace,) = tracer.finished_traces()
        assert len(trace["spans"]) == 3
        assert trace["spans_dropped"] == 3  # two children + the root itself


class TestWireContext:
    def test_round_trip_preserves_the_trace_id(self):
        client = Tracer(sample_rate=1.0)
        server = Tracer(sample_rate=0.0, slow_ms=None)
        server.sample_rate = 0.0
        server.slow_ms = 1e9  # enabled, but nothing is slow

        with client.start_request("client.metric") as span:
            ctx = client.wire_context()
            assert ctx == {
                "trace_id": span.trace_id,
                "parent_span_id": span.span_id,
                "sampled": True,
            }
            with server.start_request("server.metric", remote=ctx) as remote_root:
                assert remote_root.trace_id == span.trace_id
                assert remote_root.parent_id == span.span_id
        # An adopted context is sampled: the server keeps the trace even
        # though its own coin never flips.
        (trace,) = server.finished_traces()
        assert trace["trace_id"] == span.trace_id

    def test_unsampled_context_does_not_propagate(self):
        tracer = Tracer(sample_rate=0.0, slow_ms=1e9)
        with tracer.start_request("client.metric"):
            assert tracer.wire_context() is None

    def test_no_active_span_has_no_context(self):
        assert Tracer(sample_rate=1.0).wire_context() is None

    @pytest.mark.parametrize(
        "remote",
        [
            None,
            "garbage",
            42,
            [],
            {},
            {"sampled": False, "trace_id": "ab" * 8},
            {"sampled": True},
            {"sampled": True, "trace_id": "short"},
            {"sampled": True, "trace_id": "zz" * 8},  # not hex
            {"sampled": True, "trace_id": 1234},
            {"sampled": True, "trace_id": "ab" * 40},  # too long
        ],
    )
    def test_invalid_wire_contexts_are_ignored(self, remote):
        assert _valid_wire_context(remote) is None
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("server.metric", remote=remote) as span:
            assert span.recording
            assert span.parent_id == ""

    def test_oversized_parent_span_id_is_dropped_not_fatal(self):
        ctx = {"sampled": True, "trace_id": "ab" * 8, "parent_span_id": "x" * 65}
        assert _valid_wire_context(ctx) == ("ab" * 8, "")


class TestTraceBuffer:
    def test_ring_evicts_oldest(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(4):
            buffer.append({"trace_id": f"t{i}"})
        assert [t["trace_id"] for t in buffer.traces()] == ["t2", "t3"]
        assert len(buffer) == 2

    def test_filter_and_limit(self):
        buffer = TraceBuffer(capacity=8)
        for i in range(6):
            buffer.append({"trace_id": f"t{i % 2}", "n": i})
        assert [t["n"] for t in buffer.traces(trace_id="t0")] == [0, 2, 4]
        assert [t["n"] for t in buffer.traces(limit=2)] == [4, 5]

    def test_tracer_buffer_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace_module, "TRACE_BUFFER_CAPACITY", 3)
        tracer = Tracer(sample_rate=1.0)
        for i in range(6):
            with tracer.start_request(f"req{i}"):
                pass
        assert [t["root"] for t in tracer.finished_traces(limit=None)] == [
            "req3", "req4", "req5",
        ]


class TestStatsAndRendering:
    def test_stats_are_json_safe(self):
        tracer = Tracer(sample_rate=1.0, slow_ms=10.0)
        with tracer.start_request("req"):
            with tracer.start_span("child"):
                pass
        stats = tracer.stats()
        json.dumps(stats)
        assert stats["enabled"] is True
        assert stats["requests"] == 1
        assert stats["spans"] == 2
        assert stats["buffered"] == 1

    def test_trace_dict_is_json_safe(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("server.metric", attributes={"op": "metric"}):
            with tracer.start_span("engine.metric", {"s": 2, "odd": object()}):
                pass
        (trace,) = tracer.finished_traces()
        json.dumps(trace)  # attribute coercion keeps it serialisable

    def test_render_trace_draws_an_indented_tree(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_request("server.metric"):
            with tracer.start_span("engine.metric"):
                with tracer.start_span("store.shard_load", {"shard_id": 1}):
                    pass
        (trace,) = tracer.finished_traces()
        text = render_trace(trace)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace['trace_id']}  root=server.metric")
        assert "[sampled]" in lines[0]
        assert "server.metric" in lines[1]
        assert lines[2].startswith("    engine.metric"[:4]) and "engine.metric" in lines[2]
        assert "store.shard_load" in lines[3]
        assert "shard_id=1" in lines[3]
        # Children are indented deeper than their parents.
        assert lines[3].index("store.shard_load") > lines[2].index("engine.metric")

    def test_render_trace_marks_errors(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(ValueError):
            with tracer.start_request("server.metric"):
                raise ValueError("bad s")
        (trace,) = tracer.finished_traces()
        assert "!error" in render_trace(trace)
        assert "bad s" in render_trace(trace)

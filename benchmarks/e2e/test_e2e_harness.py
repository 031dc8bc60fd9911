"""Fast, subprocess-free checks of the benchmark's own arithmetic and contract.

Collected by the tier-1 run (``python -m pytest``).  Named
``test_e2e_harness.py`` rather than ``test_harness.py`` because
``tests/chaos/test_harness.py`` already owns that module name under
pytest's rootdir-relative imports.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import e2e_spans as spans  # noqa: E402
import e2e_spec as spec  # noqa: E402
import e2e_stats as stats  # noqa: E402
from e2e_spans import Span  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


# --------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (199, None), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_tail(n) == expected


def test_tail_is_zero_when_the_sample_cannot_support_it():
    samples = [float(i) for i in range(1, 200)]
    assert stats.tail_or_zero(samples, 95.0) == 0.0
    samples.append(200.0)
    assert stats.tail_or_zero(samples, 95.0) == 190.0  # nearest rank: ceil(.95 * 200)
    assert stats.tail_or_zero(samples, 99.0) == 0.0


def test_summarize_reports_count_median_and_supported_tail():
    summary = stats.summarize([float(i) for i in range(1, 1001)])
    assert summary == {"n": 1000, "p50": 500.5, "tail_q": 99.0, "tail": 990.0}
    assert stats.summarize([]) == {"n": 0, "p50": 0.0, "tail_q": 0.0, "tail": 0.0}


# --------------------------------------------------------------------- #
# Shares from summed numerators and denominators
# --------------------------------------------------------------------- #
def test_ratio_is_recomputed_from_sums_not_averaged():
    total = stats.Ratio(1, 10).add(90, 100)
    assert (total.numerator, total.denominator) == (91, 110)
    assert total.value == pytest.approx(91 / 110)
    assert total.value != pytest.approx((0.1 + 0.9) / 2)
    assert stats.Ratio().value == 0.0


def test_layer_shares_use_one_denominator():
    shares = stats.shares({"transport": 3.0, "engine": 1.0}, 8.0)
    assert shares == {"transport": 0.375, "engine": 0.125}
    assert stats.shares({"transport": 3.0}, 0.0) == {"transport": 0.0}


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([5.0]) == 0.0


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "ok"
    assert stats.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regressed"
    assert stats.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert stats.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    # Spread wider than the bound, yet every candidate run beats every baseline run.
    assert stats.verdict(noisy, [10.0, 20.0, 30.0, 15.0, 25.0], "lower", 0.10)[0] == "ok"


# --------------------------------------------------------------------- #
# Span self-time arithmetic
# --------------------------------------------------------------------- #
def _span(span_id, name, start, end, parent=0, request=None, thread=1):
    return Span(span_id, name, start, end, parent, request if request else span_id, thread)


def test_self_time_of_nested_spans():
    tree = [
        _span(1, "transport.request", 0.0, 10.0),
        _span(2, "service.execute", 1.0, 9.0, parent=1, request=1),
        _span(3, "engine.metric", 2.0, 5.0, parent=2, request=1),
        _span(4, "engine.squeezed_graph", 5.0, 6.0, parent=2, request=1),
        _span(5, "core.squeeze", 5.5, 6.0, parent=4, request=1),
        _span(6, "transport.send", 9.0, 10.0, parent=1, request=1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 1.0, 2: 4.0, 3: 3.0, 4: 0.5, 5: 0.5, 6: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)
    layers, request_seconds = spans.layer_self_seconds(tree, None, "transport.request")
    assert request_seconds == pytest.approx(10.0)
    assert layers == pytest.approx(
        {"untraced": 1.0, "service": 4.0, "engine": 3.5, "core": 0.5, "transport": 1.0}
    )


def test_parallel_children_on_other_threads_split_shared_time():
    # A batch frame: two executes run in parallel on worker threads for 4 s.
    tree = [
        _span(1, "transport.request", 0.0, 6.0),
        _span(2, "service.serve", 1.0, 5.0, parent=1, request=1),
        _span(3, "service.execute", 1.0, 5.0, parent=2, request=1, thread=2),
        _span(4, "engine.add_hyperedge", 1.0, 5.0, parent=2, request=1, thread=3),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 2.0, 2: 0.0, 3: 2.0, 4: 2.0})
    assert sum(own.values()) == pytest.approx(6.0)  # never more than the request took


def test_writer_thread_work_is_adopted_by_the_waiting_request():
    recorded = [
        _span(1, "transport.request", 0.0, 10.0),
        _span(2, "service.execute", 1.0, 9.0, parent=1, request=1),
        _span(3, "service.admission_wait", 2.0, 8.0, parent=2, request=1),
        # Writer thread: no parent on its own thread, so it is its own request.
        _span(4, "store.wal_batch", 3.0, 7.0, thread=9),
        _span(5, "store.fsync", 6.0, 7.0, parent=4, request=4, thread=9),
        # A second waiter of the same group commit keeps its whole wait.
        _span(6, "transport.request", 0.5, 10.0, thread=2),
        _span(7, "service.admission_wait", 2.5, 8.0, parent=6, request=6, thread=2),
        # Background work nobody waited for stays out of every request.
        _span(8, "store.compact", 20.0, 30.0, thread=7),
    ]
    adopted = {s.id: s for s in spans.adopt_orphans(recorded, "service.admission_wait")}
    assert (adopted[4].parent, adopted[4].request) == (3, 1)
    assert adopted[5].request == 1
    assert (adopted[8].parent, adopted[8].request) == (0, 8)
    layers, request_seconds = spans.layer_self_seconds(
        list(adopted.values()), (0.0, 15.0), "transport.request"
    )
    assert request_seconds == pytest.approx(10.0 + 9.5)
    assert layers["store"] == pytest.approx(4.0)
    # execute: 2 s around the wait; waiter 3: 2 s outside the commit; waiter 7: all 5.5 s
    assert layers["service"] == pytest.approx(2.0 + 2.0 + 5.5)
    assert sum(layers.values()) == pytest.approx(request_seconds)
    waits = spans.exclusive_ms(list(adopted.values()), "service.admission_wait")
    assert waits == pytest.approx([2000.0, 5500.0])


def test_client_side_time_completes_the_table():
    server_layers = {"service": 1.0, "engine": 2.0, "untraced": 0.5}
    calls = [
        ("metric", 0.0, 3.0),
        ("sync", 10.0, 12.0),
        ("wire.repl_wal", 10.5, 11.5),
    ]
    # Server-side request roots covered 3.5 s + 0.5 s of those round trips.
    layers, request_seconds = spans.add_client_side(server_layers, 4.0, calls)
    assert request_seconds == pytest.approx(3.0 + 2.0)
    assert layers["transport"] == pytest.approx((3.0 + 1.0) - 4.0 + 0.0)
    assert layers["replication"] == pytest.approx(1.0)
    server_layers["transport"] = 0.5
    layers, _ = spans.add_client_side(server_layers, 4.0, calls)
    assert sum(layers.values()) == pytest.approx(5.0)


def test_recorder_nests_roots_and_hands_off_across_threads():
    recorder = spans.SpanRecorder()
    recorder.open_root("transport.request", 1.0)
    with recorder.span("service.serve"):
        handoff = recorder.current()
        def work():
            with recorder.span("service.execute", parent=handoff):
                recorder.record("service.rwlock_read_wait", 1.5, 1.6)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    recorder.close_root()
    recorder.close_root()  # idempotent
    by_name = {s.name: s for s in recorder.spans}
    root = by_name["transport.request"]
    assert root.parent == 0 and root.request == root.id and root.start == 1.0
    assert by_name["service.serve"].parent == root.id
    assert by_name["service.execute"].parent == by_name["service.serve"].id
    assert by_name["service.execute"].thread != by_name["service.serve"].thread
    assert by_name["service.rwlock_read_wait"].parent == by_name["service.execute"].id
    assert {s.request for s in recorder.spans} == {root.id}


# --------------------------------------------------------------------- #
# Contract: names, caps, and BENCHMARK.json == what the code emits
# --------------------------------------------------------------------- #
def test_name_and_unit_grammar():
    for good in ("setup_s", "engine.cache_hit_ratio", "p99-latency", "9lives"):
        assert spec.NAME_RE.match(good)
    for bad in ("", ".hidden", "has space", "ümlaut", "x" * 65, "a/b"):
        assert not spec.NAME_RE.match(bad)
    for good in ("ms", "s", "1/s", "ops/s", "count", "%", "MB"):
        assert spec.UNIT_RE.match(good)
    for bad in ("", "m s", "u" * 17):
        assert not spec.UNIT_RE.match(bad)


def test_declared_metrics_fit_the_caps():
    assert 2 <= len(spec.WORKLOADS) <= spec.MAX_WORKLOADS
    assert 1 <= len(spec.END_TO_END) <= spec.MAX_END_TO_END
    assert 1 <= len(spec.PER_LAYER) <= spec.MAX_PER_LAYER
    assert spec.validate_document(spec.benchmark_document()) == []
    assert set(spec.EXACT_COUNTERS) <= {m.name for m in spec.PER_LAYER}


def test_validator_catches_contract_breaks():
    doc = spec.benchmark_document()
    doc["workloads"] = doc["workloads"] * 3
    assert any("used twice" in p for p in spec.validate_document(doc))
    doc = spec.benchmark_document()
    doc["end_to_end"][1]["bound"] = 0.5
    assert any("bound" in p for p in spec.validate_document(doc))
    doc = spec.benchmark_document()
    doc["end_to_end"] = [e for e in doc["end_to_end"] if e["name"] != "setup_s"]
    assert any("setup_s" in p for p in spec.validate_document(doc))
    doc = spec.benchmark_document()
    doc["per_layer"] = doc["per_layer"] * 2
    assert any("need 1..128" in p for p in spec.validate_document(doc))
    doc = spec.benchmark_document()
    doc["extra"] = 1
    assert spec.validate_document(doc)


def test_benchmark_json_lists_exactly_what_the_code_emits():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == spec.benchmark_document()
    assert os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json")) <= 64 * 1024
    for path in on_disk["paths"]:
        assert os.path.isdir(os.path.join(REPO_ROOT, path))
    assert all(not part.startswith("/") and ".." not in part for part in on_disk["command"])

    import run

    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        emitted = run.Run("read_hot", 0, 1.0, trace, smoke=True).metrics()
        assert list(emitted) == [metric.name for metric in declared]
        assert {m["unit"] for m in emitted.values()} == {metric.unit for metric in declared}

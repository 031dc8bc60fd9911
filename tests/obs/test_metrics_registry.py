"""MetricsRegistry semantics: instruments, labels, concurrency."""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    use_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("ops_total", "ops")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_is_rejected(self, registry):
        c = registry.counter("ops_total")
        with pytest.raises(MetricsError):
            c.inc(-1)
        assert c.value == 0

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("hits_total", "hits", ("cache",))
        c.labels(cache="a").inc(3)
        c.labels(cache="b").inc()
        assert c.labels(cache="a").value == 3
        assert c.labels(cache="b").value == 1

    def test_unlabelled_access_on_labelled_instrument_raises(self, registry):
        c = registry.counter("hits_total", "", ("cache",))
        with pytest.raises(MetricsError):
            c.inc()

    def test_wrong_label_names_raise(self, registry):
        c = registry.counter("hits_total", "", ("cache",))
        with pytest.raises(MetricsError):
            c.labels(shard="x")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6

    def test_can_go_negative(self, registry):
        g = registry.gauge("delta")
        g.dec(3)
        assert g.value == -3

    def test_callback_evaluated_at_collection(self, registry):
        g = registry.gauge("age")
        box = {"v": 1.0}
        g.set_function(lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0

    def test_broken_callback_reads_zero(self, registry):
        g = registry.gauge("age")
        g.set_function(lambda: 1 / 0)
        assert g.value == 0.0

    def test_set_clears_callback(self, registry):
        g = registry.gauge("age")
        g.set_function(lambda: 7.0)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self, registry):
        h = registry.histogram("lat", "", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        counts, total, count = h._default_child().snapshot()
        assert counts == [1, 2, 1, 1]  # last slot is the +Inf overflow
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_boundary_value_belongs_to_its_bucket(self, registry):
        # Prometheus buckets are upper-inclusive: le="1.0" contains 1.0.
        h = registry.histogram("lat", "", buckets=(1.0, 2.0))
        h.observe(1.0)
        counts, _, _ = h._default_child().snapshot()
        assert counts == [1, 0, 0]

    def test_default_buckets_are_the_latency_ladder(self, registry):
        h = registry.histogram("lat")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS

    def test_unsorted_or_empty_buckets_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.histogram("a", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("b", buckets=(1.0, 0.5))
        with pytest.raises(MetricsError):
            registry.histogram("c", buckets=(1.0, 1.0))


class TestRegistration:
    def test_get_or_create_is_idempotent(self, registry):
        a = registry.counter("x_total", "first")
        b = registry.counter("x_total", "second help ignored")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(MetricsError):
            registry.gauge("x_total")

    def test_labelnames_mismatch_raises(self, registry):
        registry.counter("x_total", "", ("op",))
        with pytest.raises(MetricsError):
            registry.counter("x_total", "", ("code",))

    def test_invalid_metric_name_rejected(self, registry):
        for bad in ("1abc", "a-b", "a b", ""):
            with pytest.raises(MetricsError):
                registry.counter(bad)

    def test_invalid_label_name_rejected(self, registry):
        for bad in ("1a", "a-b", "__reserved"):
            with pytest.raises(MetricsError):
                registry.counter("ok_total", "", (bad,))

    def test_get_and_collect(self, registry):
        c = registry.counter("a_total")
        g = registry.gauge("b")
        assert registry.get("a_total") is c
        assert registry.get("missing") is None
        assert registry.collect() == [c, g]  # registration order

    def test_snapshot_shape(self, registry):
        registry.counter("a_total", "help a").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["help"] == "help a"
        assert snap["a_total"]["values"] == [{"labels": {}, "value": 2}]
        hist = snap["h"]["values"][0]
        assert hist["count"] == 1
        assert hist["buckets"] == {"1": 1}
        assert hist["inf"] == 0


class TestDefaultRegistry:
    def test_use_registry_scopes_the_default(self):
        outer = get_registry()
        inner = MetricsRegistry()
        with use_registry(inner):
            assert get_registry() is inner
        assert get_registry() is outer

    def test_use_registry_restores_on_error(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is outer

    def test_null_registry_instruments_are_inert(self):
        null = NullRegistry()
        c = null.counter("a_total")
        c.inc(5)
        null.gauge("g").set(3)
        null.histogram("h").observe(1.0)
        assert c.value == 0
        assert null.snapshot() == {}


class TestConcurrency:
    def test_multithreaded_counter_hammer_loses_nothing(self, registry):
        c = registry.counter("hammer_total", "", ("lane",))
        threads, per_thread, lanes = 8, 5000, 4
        children = [c.labels(lane=str(i)) for i in range(lanes)]

        def worker(tid):
            child = children[tid % lanes]
            for _ in range(per_thread):
                child.inc()

        ts = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        total = sum(child.value for child in children)
        assert total == threads * per_thread

    def test_multithreaded_histogram_hammer_loses_nothing(self, registry):
        h = registry.histogram("lat", "", buckets=(0.5, 1.5, 2.5))
        threads, per_thread = 8, 4000

        def worker(tid):
            value = float(tid % 3)  # deterministic spread over the buckets
            for _ in range(per_thread):
                h.observe(value)

        ts = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        counts, total, count = h._default_child().snapshot()
        assert count == threads * per_thread
        assert sum(counts) == count
        expected_sum = sum((tid % 3) * per_thread for tid in range(threads))
        assert total == pytest.approx(expected_sum)

    def test_concurrent_registration_yields_one_instrument(self, registry):
        results = []

        def register():
            results.append(registry.counter("shared_total"))

        ts = [threading.Thread(target=register) for _ in range(8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert all(r is results[0] for r in results)

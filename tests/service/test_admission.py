"""AdmissionQueue: batching, durability acknowledgements, failure isolation."""

import threading

import numpy as np
import pytest

from repro.engine.engine import QueryEngine
from repro.service.admission import AdmissionQueue
from repro.service.sync import RWLock
from repro.store.store import IndexStore
from repro.store.persistent import PersistentQueryEngine
from repro.utils.rng import make_rng
from repro.utils.validation import ValidationError


@pytest.fixture
def persistent_engine(community_hypergraph, tmp_path):
    store = IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return PersistentQueryEngine(store)


def random_members(h, rng, size=5):
    return np.unique(rng.choice(h.num_vertices, size=size, replace=False)).tolist()


class TestBatching:
    def test_submissions_coalesce_into_one_group_commit(self, persistent_engine):
        """Updates queued while the writer is busy land in one batch: one
        exclusive-lock cycle and one WAL fsync for all of them."""
        lock = RWLock()
        queue = AdmissionQueue(persistent_engine, write_lock=lock, max_batch=64)
        rng = make_rng(0)
        with lock.write():  # stall the writer thread deterministically
            futures = [
                queue.submit_add(random_members(persistent_engine.hypergraph, rng))
                for _ in range(10)
            ]
        for future in futures:
            assert isinstance(future.result(timeout=5), int)
        queue.close()
        stats = queue.stats()
        assert stats.applied == 10
        assert stats.batches == 1
        assert stats.largest_batch == 10
        assert persistent_engine.store.wal.batch_commits == 1
        assert persistent_engine.store.num_wal_records() == 10

    def test_max_batch_caps_coalescing(self, persistent_engine):
        lock = RWLock()
        queue = AdmissionQueue(persistent_engine, write_lock=lock, max_batch=4)
        rng = make_rng(1)
        with lock.write():
            futures = [
                queue.submit_add(random_members(persistent_engine.hypergraph, rng))
                for _ in range(10)
            ]
        for future in futures:
            future.result(timeout=5)
        queue.close()
        stats = queue.stats()
        assert stats.largest_batch <= 4
        assert stats.batches >= 3

    def test_futures_resolve_to_assigned_edge_ids(self, persistent_engine):
        base = persistent_engine.hypergraph.num_edges
        with AdmissionQueue(persistent_engine) as queue:
            f1 = queue.submit_add([0, 1, 2])
            f2 = queue.submit_add([2, 3], name="later")
            assert f1.result(timeout=5) == base
            assert f2.result(timeout=5) == base + 1
            f3 = queue.submit_remove(0)
            assert f3.result(timeout=5) is None


class TestDurability:
    def test_acknowledged_updates_survive_reopen(self, persistent_engine, tmp_path):
        """Anything whose future resolved is recoverable by a new process."""
        rng = make_rng(2)
        with AdmissionQueue(persistent_engine) as queue:
            for _ in range(6):
                queue.submit_add(random_members(persistent_engine.hypergraph, rng))
            queue.submit_remove(1)
            queue.flush()
        reopened = IndexStore.open(persistent_engine.store.path)
        assert reopened.num_wal_records() == 7
        oracle = QueryEngine(reopened.load_hypergraph())
        loaded = reopened.sharded_index()
        for s in range(1, max(loaded.max_weight, 1) + 1):
            assert loaded.line_graph(s) == oracle.line_graph(s), s

    def test_flush_blocks_until_prior_submissions_applied(self, persistent_engine):
        with AdmissionQueue(persistent_engine) as queue:
            futures = [queue.submit_add([0, 1, 2]) for _ in range(5)]
            queue.flush()
            assert all(f.done() for f in futures)

    def test_plain_engine_is_supported_without_a_store(self, community_hypergraph):
        engine = QueryEngine(community_hypergraph)
        with AdmissionQueue(engine) as queue:
            new_id = queue.submit_add([0, 1, 2]).result(timeout=5)
        assert new_id == community_hypergraph.num_edges
        assert engine.hypergraph.num_edges == community_hypergraph.num_edges + 1


class TestFailFuture:
    """The rejection helper tolerates exactly one race, nothing more."""

    def test_already_resolved_future_is_left_alone(self):
        from concurrent.futures import Future

        from repro.service.admission import _fail_future

        future = Future()
        future.set_result(7)
        _fail_future(future, RuntimeError("boom"))  # must not raise
        assert future.result(timeout=0) == 7

    def test_cancelled_future_is_left_alone(self):
        from concurrent.futures import Future

        from repro.service.admission import _fail_future

        future = Future()
        future.cancel()
        _fail_future(future, RuntimeError("boom"))  # must not raise

    def test_lost_race_after_the_done_check_is_tolerated(self):
        from concurrent.futures import Future, InvalidStateError

        from repro.service.admission import _fail_future

        class RacyFuture(Future):
            """Looks pending at the guard, resolves before set_exception."""

            def done(self):
                return False

            def set_exception(self, exc):
                raise InvalidStateError("resolved in the race window")

        _fail_future(RacyFuture(), RuntimeError("boom"))  # must not raise

    def test_unexpected_errors_are_not_swallowed(self):
        """Regression: a bare ``except Exception`` here also hid
        programming errors (a non-future in the queue, a broken
        subclass) — only the benign resolution race may pass silently."""
        from concurrent.futures import Future

        from repro.service.admission import _fail_future

        class BrokenFuture(Future):
            def done(self):
                return False

            def set_exception(self, exc):
                raise TypeError("not a real future")

        with pytest.raises(TypeError):
            _fail_future(BrokenFuture(), RuntimeError("boom"))


class TestFailureIsolation:
    def test_bad_op_fails_its_future_only(self, persistent_engine):
        lock = RWLock()
        queue = AdmissionQueue(persistent_engine, write_lock=lock)
        with lock.write():  # force all three into one batch
            ok_before = queue.submit_add([0, 1, 2])
            bad = queue.submit_remove(10_000)  # out of range
            ok_after = queue.submit_add([1, 2, 3])
        assert isinstance(ok_before.result(timeout=5), int)
        with pytest.raises(ValidationError, match="out of range"):
            bad.result(timeout=5)
        assert isinstance(ok_after.result(timeout=5), int)
        queue.close()
        stats = queue.stats()
        assert stats.applied == 2
        assert stats.failed == 1
        # The failed op never reached the log.
        assert persistent_engine.store.num_wal_records() == 2

    def test_cancelled_future_is_dropped_not_fatal(self, persistent_engine):
        """Cancelling before the writer claims the op drops the mutation;
        the writer thread keeps running (regression: set_result on a
        cancelled future used to raise and kill the thread)."""
        lock = RWLock()
        queue = AdmissionQueue(persistent_engine, write_lock=lock)
        with lock.write():  # writer stalled: the op is still claimable
            doomed = queue.submit_add([0, 1, 2])
            assert doomed.cancel()
            survivor = queue.submit_add([1, 2, 3])
        assert isinstance(survivor.result(timeout=5), int)
        # The cancelled mutation was never applied nor logged...
        assert persistent_engine.store.num_wal_records() == 1
        # ...and the writer thread still serves later submissions.
        assert isinstance(queue.submit_add([2, 3]).result(timeout=5), int)
        queue.close()

    def test_failed_group_commit_poisons_the_queue(self, persistent_engine, monkeypatch):
        """After an fsync failure the served state may be ahead of the log:
        the batch's futures carry the error, updates already queued behind
        it are failed instead of being acked against a diverged log, and
        further submits refuse."""
        lock = RWLock()
        queue = AdmissionQueue(persistent_engine, write_lock=lock, max_batch=1)

        def broken_batch():
            raise OSError("fsync: no space left on device")

        monkeypatch.setattr(persistent_engine.store, "batch", broken_batch)
        with lock.write():  # queue one batch plus a straggler behind it
            doomed = queue.submit_add([0, 1, 2])
            behind = queue.submit_add([1, 2, 3])
        with pytest.raises(OSError, match="no space"):
            doomed.result(timeout=5)
        with pytest.raises(ValidationError, match="poisoned"):
            behind.result(timeout=5)
        with pytest.raises(ValidationError, match="poisoned"):
            queue.submit_add([1, 2])
        queue.close()

    def test_submit_after_close_is_rejected(self, persistent_engine):
        queue = AdmissionQueue(persistent_engine)
        queue.close()
        with pytest.raises(ValidationError, match="closed"):
            queue.submit_add([0, 1])

    def test_close_drains_pending_work(self, persistent_engine):
        queue = AdmissionQueue(persistent_engine)
        futures = [queue.submit_add([0, 1, 2]) for _ in range(8)]
        queue.close()
        for future in futures:
            assert isinstance(future.result(timeout=5), int)


class TestConcurrentSubmitters:
    def test_many_threads_submit_safely(self, persistent_engine):
        """Producer threads race the writer; every ack is correct and the
        final state matches a from-scratch oracle."""
        queue = AdmissionQueue(persistent_engine, max_batch=8)
        rng_members = [
            random_members(persistent_engine.hypergraph, make_rng(seed))
            for seed in range(24)
        ]
        results = [None] * len(rng_members)

        def producer(start, stop):
            for i in range(start, stop):
                results[i] = queue.submit_add(rng_members[i])

        threads = [
            threading.Thread(target=producer, args=(i * 8, (i + 1) * 8))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        queue.flush()
        ids = sorted(f.result(timeout=5) for f in results)
        base = persistent_engine.store.manifest.num_hyperedges
        assert ids == list(range(base, base + 24))
        queue.close()
        oracle = QueryEngine(persistent_engine.hypergraph)
        for s in (1, 2, 3):
            assert persistent_engine.line_graph(s) == oracle.line_graph(s), s

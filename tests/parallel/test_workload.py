"""Unit tests for the per-worker workload statistics."""
import pytest

from repro.parallel.workload import WorkerCounters, WorkloadStats


class TestWorkloadStats:
    def make_stats(self):
        return WorkloadStats.from_counters(
            [
                WorkerCounters(worker_id=1, wedges_visited=30, set_intersections=2),
                WorkerCounters(worker_id=0, wedges_visited=10, set_intersections=1),
            ]
        )

    def test_sorted_by_worker_id(self):
        stats = self.make_stats()
        assert [w.worker_id for w in stats.workers] == [0, 1]
        assert stats.visits_per_worker().tolist() == [10, 30]

    def test_totals(self):
        stats = self.make_stats()
        assert stats.total_wedges() == 40
        assert stats.total_set_intersections() == 3
        assert stats.num_workers == 2

    def test_imbalance(self):
        stats = self.make_stats()
        assert stats.imbalance() == pytest.approx(30 / 20)
        balanced = WorkloadStats.from_counters(
            [WorkerCounters(0, wedges_visited=5), WorkerCounters(1, wedges_visited=5)]
        )
        assert balanced.imbalance() == pytest.approx(1.0)

    def test_empty_stats(self):
        stats = WorkloadStats()
        assert stats.total_wedges() == 0
        assert stats.imbalance() == 1.0

    def test_merge_counters(self):
        a = WorkerCounters(0, edges_processed=1, wedges_visited=2)
        b = WorkerCounters(0, edges_processed=3, wedges_visited=4, line_edges_emitted=5)
        a.merge(b)
        assert a.edges_processed == 4
        assert a.wedges_visited == 6
        assert a.line_edges_emitted == 5

    def test_as_dict(self):
        stats = self.make_stats()
        d = stats.as_dict()
        assert d["num_workers"] == 2
        assert d["visits_per_worker"] == [10, 30]

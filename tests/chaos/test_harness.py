"""Chaos-harness building blocks (no subprocesses: the fast pieces)."""

import json

import pytest

from repro.chaos.harness import (
    ChaosHarness,
    ScenarioError,
    UpdateLedger,
    diff_stores,
    metric_value,
    oracle_values_json,
    percentile,
    scrape_metrics,
    wait_until,
)
from repro.obs import MetricsHTTPServer, MetricsRegistry
from repro.service.transport import RemoteServiceError


class TestWaitUntil:
    def test_returns_elapsed_once_true(self):
        assert wait_until(lambda: True, timeout=1.0) < 1.0

    def test_exceptions_count_as_not_yet(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionRefusedError()
            return True

        wait_until(flaky, timeout=5.0, interval=0.01)
        assert len(calls) == 3

    def test_timeout_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="never-true"):
            wait_until(
                lambda: False, timeout=0.1, interval=0.01,
                description="never-true",
            )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_p95_of_a_spread(self):
        values = list(range(100))
        assert percentile(values, 0.95) == 94
        assert percentile(values, 0.0) == 0
        assert percentile(values, 1.0) == 99


class TestScrape:
    def test_scrape_and_label_matching(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "hits", ("point",)).labels(
            point="wal.append"
        ).inc(3)
        registry.gauge("lag", "lag").set(2.5)
        with MetricsHTTPServer(registry=registry) as server:
            scraped = scrape_metrics(server.url)
        assert metric_value(scraped, "lag") == 2.5
        assert metric_value(scraped, "hits_total", {"point": "wal.append"}) == 3.0
        assert metric_value(scraped, "hits_total", {"point": "other"}) is None
        assert metric_value(scraped, "absent") is None


class TestDiffStores:
    def _fill(self, root, files):
        for name, content in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)

    def test_identical_stores_have_no_diffs(self, tmp_path):
        files = {"manifest.json": b"{}", "shards/s0.npz": b"abc"}
        self._fill(tmp_path / "a", files)
        self._fill(tmp_path / "b", files)
        assert diff_stores(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_bookkeeping_files_are_ignored(self, tmp_path):
        self._fill(tmp_path / "a", {"manifest.json": b"{}", "writer.lock": b"a"})
        self._fill(
            tmp_path / "b",
            {
                "manifest.json": b"{}",
                "writer.lock": b"b",
                "replication.json": b"{}",
                "shards/s1.npz.staged": b"tmp",
                "wal.jsonl.sync": b"tmp",
            },
        )
        assert diff_stores(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_differences_are_reported(self, tmp_path):
        self._fill(tmp_path / "a", {"manifest.json": b"{1}", "only_a": b"x"})
        self._fill(tmp_path / "b", {"manifest.json": b"{2}", "only_b": b"y"})
        problems = diff_stores(str(tmp_path / "a"), str(tmp_path / "b"))
        assert "only in writer: only_a" in problems
        assert "only in mirror: only_b" in problems
        assert "bytes differ: manifest.json" in problems


class TestUpdateLedger:
    def test_resolve_survived_folds_into_acked(self):
        ledger = UpdateLedger(acked=[[0, 1]], indeterminate=[2, 3])
        ledger.resolve(survived=True)
        assert ledger.acked == [[0, 1], [2, 3]]
        assert ledger.indeterminate is None

    def test_resolve_dead_drops_the_op(self):
        ledger = UpdateLedger(acked=[[0, 1]], indeterminate=[2, 3])
        ledger.resolve(survived=False)
        assert ledger.acked == [[0, 1]]
        assert ledger.indeterminate is None


class _RefusingClient:
    """Acks ``acks`` adds, then answers the next with a typed error."""

    def __init__(self, acks):
        self.acks = acks

    def add(self, members):
        if self.acks == 0:
            raise RemoteServiceError("refused", code="E_INTERNAL")
        self.acks -= 1


class TestSubmitUpdates:
    def test_a_typed_refusal_is_a_durability_failure_and_stops(self, tmp_path):
        harness = ChaosHarness(str(tmp_path), num_seed_edges=12)
        assert harness.submit_updates(_RefusingClient(acks=2), 5) == 2
        assert len(harness.ledger.acked) == 2
        assert harness.ledger.indeterminate is None
        assert len(harness.failures) == 1
        assert harness.failures[0].startswith("durability: add ")


class TestHarnessWorld:
    def test_seed_store_and_deterministic_edges(self, tmp_path):
        harness = ChaosHarness(str(tmp_path), num_seed_edges=12)
        first = [harness.next_edge() for _ in range(10)]
        assert all(len(e) >= 2 for e in first)
        assert all(
            0 <= v < harness.num_vertices for edge in first for v in edge
        )
        other = ChaosHarness(str(tmp_path / "other"), num_seed_edges=12)
        assert [other.next_edge() for _ in range(10)] == first
        assert harness.expected_edges() == harness.seed_edges

    def test_oracle_json_matches_wire_serialisation(self, tmp_path):
        harness = ChaosHarness(str(tmp_path), num_seed_edges=12)
        h = harness.oracle_hypergraph()
        text = oracle_values_json(h, 1, "connected_components")
        values = json.loads(text)
        assert values  # one value per non-empty hyperedge
        assert all(isinstance(k, str) for k in values)
        assert text == json.dumps(values, sort_keys=True)

"""Chaos building blocks (no subprocesses: the fast pieces)."""

import json

import pytest

from repro.chaos.harness import (
    ScenarioError,
    diff_stores,
    fingerprint,
    oracle_divergences,
    oracle_values_json,
    outcomes,
    served_one_of,
    wait_until,
)
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.obs import MetricsHTTPServer, MetricsRegistry
from repro.service.transport import RemoteServiceError, TransportError
from repro.store import IndexStore
from tests.chaos.drills import (
    NUM_VERTICES,
    SEED_EDGES,
    Drill,
    LagSampler,
    metric_value,
    percentile,
    probe,
    scrape_metrics,
)


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


class TestProbe:
    def test_a_503_is_an_answer_not_an_error(self):
        with MetricsHTTPServer(
            registry=MetricsRegistry(),
            readiness=lambda: (False, {"reason": "last sync failed"}),
        ) as server:
            base = server.url.rsplit("/metrics", 1)[0]
            status, payload = probe(base, "/readyz")
        assert status == 503
        assert payload == {"status": "unavailable", "reason": "last sync failed"}


class TestLagSampler:
    def test_samples_the_lag_gauges_into_windows(self):
        registry = MetricsRegistry()
        registry.gauge("repro_replica_generation_lag", "gen lag").set(3)
        registry.gauge("repro_replica_wal_lag_bytes", "wal lag").set(10)
        with MetricsHTTPServer(registry=registry) as server:
            sampler = LagSampler(server.url, interval=0.01)
            sampler.start()
            try:
                wait_until(lambda: len(sampler.samples) >= 2, timeout=10.0)
            finally:
                sampler.stop()
        assert not sampler.is_alive()
        assert all(row[1:] == (3.0, 10.0) for row in sampler.samples)
        first, last = sampler.samples[0][0], sampler.samples[-1][0]
        assert sampler.window(first) == sampler.samples
        assert sampler.window(last + 1.0) == []
        assert sampler.window(first, first) == sampler.samples[:1]


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


class TestDurabilityCheck:
    ACKED = [[0, 1], [1, 2]]

    def test_the_served_candidate_is_returned(self):
        candidates = outcomes(self.ACKED, ("add", [2, 3]))
        assert candidates == [self.ACKED, self.ACKED + [[2, 3]]]
        for state in candidates:
            assert served_one_of(fingerprint(state, 4), candidates, 4) == state

    def test_a_lost_ack_matches_no_candidate(self):
        candidates = outcomes(self.ACKED, ("add", [2, 3]))
        with pytest.raises(ScenarioError, match="acknowledged update was lost"):
            served_one_of(fingerprint(self.ACKED[:1], 4), candidates, 4)

    def test_remove_and_batch_outcomes(self):
        assert outcomes(self.ACKED, ("remove", 0)) == [self.ACKED, [[], [1, 2]]]
        assert outcomes(self.ACKED, ("batch", [[2, 3], [0, 3]])) == [
            self.ACKED,
            self.ACKED + [[2, 3]],
            self.ACKED + [[2, 3], [0, 3]],
        ]
        assert outcomes(self.ACKED, ("compact", None)) == [self.ACKED]


class _FakeClient:
    """Acks ``acks`` adds, then raises ``error``; serves ``served``'s fingerprint."""

    def __init__(self, acks=0, error=None, served=None):
        self.acks = acks
        self.error = error
        self.served = served

    def add(self, members):
        if self.acks == 0:
            raise self.error
        self.acks -= 1

    def fingerprint(self):
        return fingerprint(self.served, NUM_VERTICES)


class TestSubmitUpdates:
    def test_a_typed_refusal_is_a_durability_failure_and_stops(self, tmp_path):
        drill = Drill(str(tmp_path))
        refusal = RemoteServiceError("refused", code="E_INTERNAL")
        drill.submit_updates(_FakeClient(acks=2, error=refusal), 5)
        assert len(drill.edges) == len(SEED_EDGES) + 2
        assert drill.in_flight is None
        assert len(drill.failures) == 1
        assert drill.failures[0].startswith("durability: add ")

    def test_a_transport_failure_leaves_the_add_in_flight(self, tmp_path):
        drill = Drill(str(tmp_path))
        lost = TransportError("connection reset")
        drill.submit_updates(_FakeClient(acks=1, error=lost), 5)
        assert len(drill.edges) == len(SEED_EDGES) + 1
        assert drill.in_flight is not None
        assert drill.in_flight not in drill.edges[len(SEED_EDGES):]
        assert drill.failures == []


class TestResolveInFlight:
    def _interrupted(self, tmp_path):
        drill = Drill(str(tmp_path))
        drill.submit_updates(_FakeClient(acks=1, error=TransportError("reset")), 5)
        return drill, [list(e) for e in drill.edges], drill.in_flight

    def test_an_in_flight_add_that_survived_is_folded_into_the_acked(self, tmp_path):
        drill, acked, in_flight = self._interrupted(tmp_path)
        drill.resolve_in_flight(_FakeClient(served=acked + [in_flight]))
        assert drill.edges == acked + [in_flight]
        assert drill.in_flight is None
        assert drill.failures == []

    def test_an_in_flight_add_that_died_is_dropped(self, tmp_path):
        drill, acked, _ = self._interrupted(tmp_path)
        drill.resolve_in_flight(_FakeClient(served=acked))
        assert drill.edges == acked
        assert drill.in_flight is None
        assert drill.failures == []

    def test_a_lost_ack_is_a_durability_failure(self, tmp_path):
        drill, acked, _ = self._interrupted(tmp_path)
        drill.resolve_in_flight(_FakeClient(served=acked[:-1]))
        assert drill.edges == acked
        assert len(drill.failures) == 1
        assert drill.failures[0].startswith("durability: ")


class TestHarnessWorld:
    def test_seed_store_and_deterministic_edges(self, tmp_path):
        drill = Drill(str(tmp_path))
        first = [drill.next_edge() for _ in range(10)]
        assert all(len(e) >= 2 for e in first)
        assert all(0 <= v < NUM_VERTICES for edge in first for v in edge)
        other = Drill(str(tmp_path / "other"))
        assert [other.next_edge() for _ in range(10)] == first
        assert drill.edges == SEED_EDGES
        served = IndexStore.open(drill.store_path, read_only=True).load_hypergraph()
        assert served.fingerprint() == fingerprint(SEED_EDGES, NUM_VERTICES)

    def test_oracle_json_matches_wire_serialisation(self):
        h = hypergraph_from_edge_lists([[0, 1, 2], [1, 2, 3], [3, 4]], num_vertices=5)
        text = oracle_values_json(h, 1, "connected_components")
        values = json.loads(text)
        assert values  # one value per non-empty hyperedge
        assert all(isinstance(k, str) for k in values)
        assert text == json.dumps(values, sort_keys=True)

    def test_divergences_name_the_query(self):
        edges = [[0, 1, 2], [1, 2, 3], [3, 4]]
        h = hypergraph_from_edge_lists(edges, num_vertices=5)

        def served(s, metric):
            values = json.loads(oracle_values_json(h, s, metric))
            if (s, metric) == (2, "pagerank"):
                values["0"] += 1.0
            return values

        assert oracle_divergences(served, edges, 5) == ["pagerank/s=2"]

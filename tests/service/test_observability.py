"""Observability across the serving stack: stats superset, the ``repro
stats --address`` rows, the ``metrics`` op, and replica-lag tracking."""

import time

from repro.service import QueryService
from repro.service.remote import RemoteReadReplica
from repro.service.transport import ServiceClient, SocketServer


class TestStatsPayload:
    def test_stats_is_a_superset_with_a_metrics_snapshot(self, store_path, registry):
        with QueryService(store_path) as svc:
            svc.submit_add([0, 1, 2])
            svc.flush()
            svc.metric(2, "connected_components")
            stats = svc.stats()
        # The pre-existing keys survive for old clients...
        for key in ("read_only", "generation", "fingerprint", "engine", "admission"):
            assert key in stats
        # ...and the metrics snapshot rides along.
        metrics = stats["metrics"]
        assert metrics["repro_wal_appended_records_total"]["values"][0]["value"] >= 1
        assert "repro_admission_wait_seconds" in metrics

    def test_admission_snapshot_has_stable_documented_keys(self, store_path, registry):
        with QueryService(store_path) as svc:
            svc.submit_add([0, 1, 2])
            svc.flush()
            admission = svc.stats()["admission"]
        assert set(admission) == {
            "submitted",
            "applied",
            "failed",
            "batches",
            "largest_batch",
            "mean_batch_size",
            "pending",
        }
        assert admission["applied"] == 1
        assert admission["pending"] == 0
        assert admission["applied"] + admission["failed"] <= admission["submitted"]

    def test_engine_object_counts_the_carry_forward_and_the_cli_shows_it(
        self, store_path, registry, capsys
    ):
        from repro.cli import main

        with QueryService(store_path) as svc:
            svc.metric(1, "connected_components")
            svc.submit_add([0, 1, 2]).result(timeout=10)
            svc.metric(1, "connected_components")  # brought forward, not recomputed
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    engine = client.stats()["engine"]
                assert main(["stats", "--address", f"{server.host}:{server.port}"]) == 0
        assert engine["invalidated_entries"] == 3  # L_1, its squeezed CSR, the labels
        assert engine["patched_entries"] == 2  # the last two; L_1 was dropped
        assert engine["delta_fallbacks"] == 0 and engine["retained_entries"] == 0
        out = capsys.readouterr().out
        for key in ("retained", "invalidated", "patched"):
            assert f"engine.{key}_entries" in out
        assert "engine.delta_fallbacks" in out
        # The payload is printed as received: the socket front end's
        # transport section included.
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert rows["transport.negotiated"] == "2"
        assert "transport.connections.by_protocol.2" in rows

    def test_engine_cache_counters_feed_the_registry(self, store_path, registry):
        with QueryService(store_path) as svc:
            svc.metric(2, "connected_components")
            svc.metric(2, "connected_components")
        hits = registry.get("repro_cache_hits_total")
        assert hits.labels(cache="engine").value >= 1


class TestMetricsOp:
    def test_writer_serves_prometheus_text_over_the_socket(
        self, store_path, registry
    ):
        with QueryService(store_path) as svc:
            svc.submit_add([0, 1, 2])
            svc.flush()
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.metric(2, "connected_components")
                    text = client.metrics_text()
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{op="metric"' in text
        assert "repro_wal_appended_records_total 1" in text
        assert "repro_admission_batch_size_count" in text

    def test_metrics_op_is_idempotent_and_inline(self, store_path, registry):
        with QueryService(store_path) as svc:
            response = svc.execute({"op": "metrics"})
        assert response["ok"]
        assert response["content_type"].startswith("text/plain; version=0.0.4")
        assert "# TYPE" in response["text"]

    def test_chained_replica_is_scrapeable_too(self, store_path, tmp_path, registry):
        with QueryService(store_path) as writer:
            with SocketServer(writer) as upstream:
                replica = RemoteReadReplica(
                    *upstream.address, store_path=str(tmp_path / "mirror")
                )
                try:
                    with SocketServer(_replica_service(replica)) as downstream:
                        with ServiceClient(*downstream.address) as client:
                            text = client.metrics_text()
                    assert "repro_replica_wal_lag_bytes" in text
                    assert "repro_replication_syncs_total" in text
                finally:
                    replica.close()

    def test_request_errors_are_counted_by_op_and_code(self, store_path, registry):
        with QueryService(store_path) as svc:
            with SocketServer(svc) as server:
                with ServiceClient(*server.address) as client:
                    client.call({"op": "metric", "s": 2, "metric": "nope"})
                    client.call({"op": "definitely_unknown"})
        errors = registry.get("repro_request_errors_total")
        assert errors.labels(op="metric", code="bad_request").value == 1
        assert errors.labels(op="other", code="bad_request").value == 1


def _replica_service(replica):
    """A minimal service façade over a RemoteReadReplica for SocketServer.

    The CLI's ``replicate --serve`` fronts the mirror directory with a real
    read-only QueryService; here the replica's own mirror dir is locked by
    the replica, so serve its engine surface through the replica directly.
    """
    from repro.service.service import QueryService

    return QueryService(replica.path, read_only=True)


class TestReplicaLag:
    def test_lag_rises_while_sync_is_paused_and_recovers(
        self, store_path, tmp_path, registry
    ):
        with QueryService(store_path) as writer:
            with SocketServer(writer) as server:
                # poll_interval far in the future = sync is "paused": the
                # replica serves local state and only lag() talks upstream.
                replica = RemoteReadReplica(
                    *server.address,
                    store_path=str(tmp_path / "mirror"),
                    poll_interval=3600.0,
                )
                try:
                    assert replica.lag()["wal_lag_bytes"] == 0

                    writer.submit_add([0, 1, 2])
                    writer.submit_add([1, 2, 3])
                    writer.flush()

                    lag = replica.lag()
                    assert lag["wal_lag_bytes"] > 0
                    gauge = registry.get("repro_replica_wal_lag_bytes")
                    assert gauge.value == lag["wal_lag_bytes"]

                    replica.sync(force=True)
                    assert replica.lag()["wal_lag_bytes"] == 0
                    assert gauge.value == 0
                finally:
                    replica.close()

    def test_generation_lag_counts_compactions(self, store_path, tmp_path, registry):
        with QueryService(store_path) as writer:
            with SocketServer(writer) as server:
                replica = RemoteReadReplica(
                    *server.address,
                    store_path=str(tmp_path / "mirror"),
                    poll_interval=3600.0,
                )
                try:
                    writer.submit_add([0, 1, 2])
                    writer.flush()
                    writer.compact()
                    lag = replica.lag()
                    assert lag["generation_lag"] == 1
                    replica.sync(force=True)
                    assert replica.lag()["generation_lag"] == 0
                finally:
                    replica.close()

    def test_sync_age_tracks_time_since_last_sync(self, store_path, tmp_path, registry):
        with QueryService(store_path) as writer:
            with SocketServer(writer) as server:
                replica = RemoteReadReplica(
                    *server.address,
                    store_path=str(tmp_path / "mirror"),
                    poll_interval=3600.0,
                )
                try:
                    age = registry.get("repro_replica_last_sync_age_seconds")
                    first = age.value
                    assert first >= 0
                    time.sleep(0.05)
                    assert age.value > first
                    replica.sync(force=True)
                    assert age.value < 0.05 + first
                finally:
                    replica.close()

    def test_sync_counters_split_full_from_delta(self, store_path, tmp_path, registry):
        with QueryService(store_path) as writer:
            with SocketServer(writer) as server:
                replica = RemoteReadReplica(
                    *server.address,
                    store_path=str(tmp_path / "mirror"),
                    poll_interval=0.0,
                )
                try:
                    syncs = registry.get("repro_replication_syncs_total")
                    assert syncs.labels(kind="full").value == 1  # bootstrap
                    writer.submit_add([0, 1, 2])
                    writer.flush()
                    replica.sync()
                    assert syncs.labels(kind="delta").value == 1
                    assert registry.get(
                        "repro_replication_wal_records_total"
                    ).value >= 1
                finally:
                    replica.close()

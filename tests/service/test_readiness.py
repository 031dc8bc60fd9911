"""Traffic-readiness probes: ``QueryService.readiness`` across roles.

The HTTP side of ``/readyz`` is covered in ``tests/obs/test_http.py``;
these tests pin the semantics of the callback the CLI wires into it:
writer ready = lock held and admission healthy, replica ready = store
readable, remote replica ready = last sync succeeded and generation lag
within the threshold.
"""

import time

from repro.service import QueryService, RemoteReadReplica
from repro.service.transport import SocketServer


class TestWriterReadiness:
    def test_healthy_writer_is_ready(self, store_path, registry):
        with QueryService(store_path) as svc:
            ready, detail = svc.readiness()
        assert ready
        assert detail["role"] == "writer"
        assert detail["generation"] == 0

    def test_closed_service_is_not_ready(self, store_path, registry):
        svc = QueryService(store_path)
        svc.close()
        ready, detail = svc.readiness()
        assert not ready
        assert detail["reason"] == "service closed"

    def test_poisoned_admission_queue_fails_readiness(self, store_path, registry):
        with QueryService(store_path) as svc:
            assert svc.readiness()[0]
            svc._admission._commit_failure = RuntimeError("fsync died")
            ready, detail = svc.readiness()
        assert not ready
        assert "poisoned" in detail["reason"]


class TestLocalReplicaReadiness:
    def test_shared_filesystem_replica_is_ready_while_readable(
        self, store_path, registry
    ):
        with QueryService(store_path, read_only=True) as replica:
            ready, detail = replica.readiness()
        assert ready
        assert detail["role"] == "replica"


class TestRemoteReplicaReadiness:
    def test_remote_replica_ready_after_a_clean_sync(
        self, store_path, registry, tmp_path
    ):
        with QueryService(store_path, max_batch=16) as writer:
            with SocketServer(writer) as upstream:
                with QueryService(
                    str(tmp_path / "mirror"),
                    read_only=True,
                    remote_source=upstream.address,
                ) as replica:
                    ready, detail = replica.readiness()
                    assert ready, detail
                    assert detail["role"] == "replica"
                    assert detail["generation_lag"] == 0

    def test_unreachable_peer_fails_readiness(self, store_path, registry, tmp_path):
        with QueryService(store_path, max_batch=16) as writer:
            upstream = SocketServer(writer).start()
            replica = QueryService(
                str(tmp_path / "mirror"),
                read_only=True,
                remote_source=upstream.address,
                replica_poll_interval=3600.0,  # no sync between probes
            )
            try:
                assert replica.readiness()[0]
                upstream.close()
                start = time.monotonic()
                ready, detail = replica.readiness()
                elapsed = time.monotonic() - start
                assert not ready
                assert detail["reason"] == "peer unreachable"
                # One refused dial, not the client's 40 x 0.25 s reconnect
                # budget.
                assert elapsed < 1.0, elapsed
            finally:
                replica.close()
                upstream.close()

    def test_failed_poll_is_reported_without_dialling_again(
        self, store_path, registry, tmp_path
    ):
        """The state a failed poll leaves behind answers the probe: an
        idle replica's follower (``refresh()``) records the outage once,
        fast, and ``/readyz`` reads it instead of re-dialling."""
        with QueryService(store_path, max_batch=16) as writer:
            upstream = SocketServer(writer).start()
            replica = RemoteReadReplica(*upstream.address, str(tmp_path / "mirror"))
            try:
                upstream.close()
                start = time.monotonic()
                replica.refresh()  # what `replicate --serve` runs while idle
                ready, detail = replica.readiness()
                elapsed = time.monotonic() - start
                assert not ready
                assert detail["reason"] == "last sync failed"
                assert "TransportError" in detail["error"]
                assert elapsed < 1.0, elapsed
                assert not replica.client.connected  # and nothing re-dialled
                assert replica.client.connect_retries == 40  # budget restored
                assert replica.num_components(1) >= 1  # still serving
            finally:
                replica.close()
                upstream.close()

    def test_generation_lag_threshold_gates_readiness(
        self, store_path, registry, tmp_path
    ):
        with QueryService(store_path, max_batch=16) as writer:
            with SocketServer(writer) as upstream:
                replica = QueryService(
                    str(tmp_path / "mirror"),
                    read_only=True,
                    remote_source=upstream.address,
                    replica_poll_interval=3600.0,  # stale on purpose
                )
                try:
                    # The writer compacts: its generation moves ahead of
                    # the replica's mirrored snapshot.
                    writer.submit_add([0, 1, 2]).result()
                    writer.compact()
                    ready, detail = replica.readiness(max_generation_lag=0)
                    assert not ready
                    assert detail["reason"] == "generation lag above threshold"
                    # A forgiving threshold (or None) accepts the same lag.
                    assert replica.readiness(max_generation_lag=5)[0]
                    assert replica.readiness(max_generation_lag=None)[0]
                finally:
                    replica.close()

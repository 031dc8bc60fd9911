"""Acceptance: multi-machine read replicas with no shared filesystem.

A writer :class:`SocketServer` (in-process, so the test can consult the
writer's hypergraph for the oracle) and a ``python -m repro replicate
--from ... --store ... --serve`` subprocess that mirrors the store into
its *own* directory purely over TCP — the only channel between the two
"machines" is the socket protocol.  Remote reader clients in separate OS
processes drive queries against the replica server; every served value
must be byte-identical (JSON text) to the
:class:`repro.core.pipeline.SLinePipeline` oracle on the writer's current
hypergraph — across batched updates (WAL-tail delta syncs) and a
compaction (changed-shards-only delta sync with a hot generation swap).
"""

import json
import subprocess
import sys

import pytest

from repro.chaos.harness import ManagedProcess, diff_stores, harness_env, wait_until
from repro.service import QueryService, ServiceClient, SocketServer
from repro.store.store import IndexStore
from repro.utils.rng import make_rng
from tests.service.acceptance import await_convergence, reader_fleet


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


def await_generation(monitor, generation):
    """Compaction does not change the fingerprint — wait on the generation."""
    wait_until(
        lambda: monitor.generation() == generation,
        description="the remote mirror to pull the compaction",
    )


class TestRemoteMirrorAcceptance:
    def test_replicate_serve_matches_oracle_across_updates_and_compaction(
        self, store_path, tmp_path
    ):
        mirror_path = str(tmp_path / "mirror")
        with QueryService(store_path, max_batch=16) as writer:
            with SocketServer(writer, port=0) as writer_server:
                proc = ManagedProcess(
                    [
                        sys.executable, "-m", "repro", "replicate",
                        "--from", f"{writer_server.host}:{writer_server.port}",
                        "--store", mirror_path,
                        "--serve", "127.0.0.1:0",
                        "--poll-interval", "0.1",
                    ],
                    name="replicate",
                )
                try:
                    synced = proc.expect("synced")
                    assert synced["full_sync"]
                    listening = proc.expect("listening")
                    assert listening["read_only"]
                    replica_address = (listening["host"], listening["port"])
                    # Serving mode bootstraps once, over the replica's own
                    # peer connection.
                    assert writer_server.stats.connections_accepted == 1

                    with reader_fleet(replica_address) as run_phase:
                        with ServiceClient(*replica_address) as monitor, ServiceClient(
                            *writer_server.address
                        ) as updater:
                            # Phase 1: the bootstrapped snapshot.
                            assert run_phase("snapshot", writer) == 0

                            # Phase 2: durable updates; the mirror pulls
                            # them as a WAL-tail delta over the socket.
                            rng = make_rng(31)
                            h = writer.engine.hypergraph
                            for _ in range(8):
                                members = sorted(
                                    set(int(v) for v in rng.choice(h.num_vertices, 5))
                                )
                                updater.add(members, wait=True)
                            updater.remove(1, wait=True)
                            await_convergence(monitor, writer.engine.fingerprint())
                            run_phase("updated", writer)

                            # Phase 3: compaction; the mirror delta-syncs
                            # the new generation and hot-swaps it.
                            assert updater.compact() == 1
                            await_generation(monitor, 1)
                            assert run_phase("compacted", writer) == 1
                finally:
                    proc.close(timeout=30)

    def test_replicate_bootstrap_once_is_byte_identical(self, store_path, tmp_path):
        """Without --serve, replicate is a one-shot bootstrap/backup."""
        mirror_path = str(tmp_path / "mirror")
        with QueryService(store_path, max_batch=16) as writer:
            writer.submit_add([0, 1, 2, 3]).result()
            with SocketServer(writer, port=0) as server:
                out = subprocess.run(
                    [
                        sys.executable, "-m", "repro", "replicate",
                        "--from", f"{server.host}:{server.port}",
                        "--store", mirror_path,
                    ],
                    env=harness_env(),
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
        assert out.returncode == 0, out.stderr
        synced = json.loads(out.stdout.splitlines()[0])
        assert synced["op"] == "synced" and synced["wal_records"] == 1
        assert diff_stores(store_path, mirror_path) == []

"""Acceptance: the serving topology crosses process *and* socket borders.

A writer :class:`SocketServer` (in-process, so the test can consult the
writer's hypergraph for the oracle) plus a ``python -m repro serve
--read-only --listen`` replica server subprocess share one store; remote
reader clients in separate OS processes drive centrality and component
queries over TCP.  Every served value must be byte-identical (JSON text)
to the :class:`repro.core.pipeline.SLinePipeline` oracle on the writer's
current hypergraph — across batched updates and a compaction-triggered
hot reload.
"""

import json
import multiprocessing as mp
import sys

import pytest

from repro.chaos.harness import ManagedProcess, oracle_values_json, wait_until
from repro.core.pipeline import SLinePipeline
from repro.service import (
    QueryService,
    ServiceClient,
    SocketServer,
    StoreLockHeldError,
)
from repro.store.store import IndexStore
from repro.utils.rng import make_rng


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


@pytest.fixture
def replica_server(store_path):
    """A ``serve --read-only --listen`` subprocess; yields its address."""
    proc = ManagedProcess(
        [
            sys.executable, "-m", "repro", "serve", "--path", store_path,
            "--read-only", "--listen", "127.0.0.1:0",
        ],
        name="replica-server",
    )
    try:
        listening = proc.expect("listening")
        assert listening["read_only"]
        yield (listening["host"], listening["port"])
    finally:
        proc.close(timeout=30)


def reader_process(address, phases, results):
    """Remote client: each phase, serve queries and report the raw JSON."""
    host, port = address
    with ServiceClient(host, port) as client:
        while True:
            phase = phases.get()
            if phase is None:
                return
            answers = {}
            for s, metric in [(2, "pagerank"), (1, "connected_components")]:
                response = client.request({"op": "metric", "s": s, "metric": metric})
                answers[f"{metric}/{s}"] = json.dumps(
                    response["values"], sort_keys=True
                )
            answers["components/2"] = client.components(2)
            results.put((phase, answers, client.generation()))


def await_convergence(monitor, fingerprint):
    wait_until(
        lambda: monitor.fingerprint() == fingerprint,
        description="the replica to catch up",
    )


NUM_READERS = 2


class TestRemoteServingAcceptance:
    def test_remote_readers_serve_oracle_values_across_updates_and_compaction(
        self, store_path, replica_server
    ):
        ctx = mp.get_context("spawn")
        phases = [ctx.Queue() for _ in range(NUM_READERS)]
        results = ctx.Queue()
        readers = [
            ctx.Process(target=reader_process, args=(replica_server, phases[i], results))
            for i in range(NUM_READERS)
        ]
        for proc in readers:
            proc.start()

        def run_phase(name, writer):
            h = writer.engine.hypergraph
            expected = {
                "pagerank/2": oracle_values_json(h, 2, "pagerank"),
                "connected_components/1": oracle_values_json(h, 1, "connected_components"),
                "components/2": SLinePipeline(
                    metrics=("connected_components",)
                ).run(h, 2).num_components(),
            }
            for queue in phases:
                queue.put(name)
            for _ in readers:
                phase, answers, generation = results.get(timeout=120)
                assert phase == name
                assert answers == expected, f"reader diverged in phase {name}"
            return generation

        try:
            with QueryService(store_path, max_batch=16) as writer:
                with SocketServer(writer, port=0) as writer_server:
                    with ServiceClient(*replica_server) as monitor, ServiceClient(
                        *writer_server.address
                    ) as updater:
                        # Phase 1: the snapshot state.
                        generation = run_phase("snapshot", writer)
                        assert generation == 0

                        # Phase 2: batched updates over the writer socket,
                        # every ack durable before the oracle is computed.
                        rng = make_rng(23)
                        h = writer.engine.hypergraph
                        for _ in range(10):
                            members = sorted(
                                set(int(v) for v in rng.choice(h.num_vertices, 5))
                            )
                            updater.add(members, wait=True)
                        updater.remove(1, wait=True)
                        await_convergence(monitor, writer.engine.fingerprint())
                        run_phase("updated", writer)

                        # Phase 3: compaction triggers the replica hot reload.
                        new_generation = updater.compact()
                        assert new_generation == 1
                        await_convergence(monitor, writer.engine.fingerprint())
                        generation = run_phase("compacted", writer)
                        assert generation == 1
        finally:
            for queue in phases:
                queue.put(None)
            for proc in readers:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - cleanup on failure
                    proc.terminate()

    def test_writer_cli_server_locks_out_a_second_writer(self, store_path):
        """A serve --listen writer subprocess holds the single-writer lock."""
        proc = ManagedProcess(
            [
                sys.executable, "-m", "repro", "serve", "--path", store_path,
                "--listen", "127.0.0.1:0",
            ],
            name="writer-server",
        )
        try:
            listening = proc.expect("listening")
            assert not listening["read_only"]
            with pytest.raises(StoreLockHeldError):
                QueryService(store_path)
            # And the socket actually serves.
            with ServiceClient("127.0.0.1", listening["port"]) as client:
                assert client.components(1) >= 0
        finally:
            proc.close(timeout=30)

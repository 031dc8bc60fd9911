"""Acceptance: two processes share one store — a writer admitting batched
updates while a read-replica process serves correct s-metric queries and
hot-reloads across compactions.

The reader is a real subprocess running ``python -m repro serve
--read-only`` (the CLI's JSONL loop); every served metric value is
cross-checked against the single-process pipeline oracle
(:class:`repro.core.pipeline.SLinePipeline`) run on the writer's current
hypergraph.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.chaos.harness import harness_env, oracle_values_json
from repro.service import QueryService
from repro.store.store import IndexStore
from repro.utils.rng import make_rng


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


@pytest.fixture
def reader(store_path):
    """A read-replica serving process sharing the store directory."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--path", store_path, "--read-only"],
        env=harness_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["op"] == "ready" and ready["read_only"]
    yield proc
    if proc.poll() is None:
        try:
            proc.stdin.write('{"op": "stop"}\n')
            proc.stdin.flush()
            proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
    proc.stdin.close()
    proc.stdout.close()
    proc.stderr.close()


def ask(proc, request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def oracle_metric(h, s, metric):
    """The single-process five-stage pipeline, keyed like the wire's ``values``."""
    return json.loads(oracle_values_json(h, s, metric))


def random_members(h, rng, size=5):
    return np.unique(rng.choice(h.num_vertices, size=size, replace=False)).tolist()


class TestWriterAndReaderProcessesShareTheStore:
    def test_reader_serves_updates_and_hot_reloads_after_compaction(
        self, store_path, reader, community_hypergraph
    ):
        with QueryService(store_path, max_batch=16) as writer:
            # 1. The reader serves the snapshot state, matching the oracle.
            response = ask(reader, {"op": "metric", "s": 2, "metric": "pagerank"})
            assert response["ok"], response
            assert response["generation"] == 0
            assert response["values"] == pytest.approx(
                oracle_metric(community_hypergraph, 2, "pagerank")
            )

            # 2. A batch of updates goes through async admission; once
            #    flush() returns they are durable, and the reader's next
            #    query (change-token poll) must serve the updated state.
            rng = make_rng(13)
            for _ in range(8):
                writer.submit_add(random_members(writer.engine.hypergraph, rng))
            writer.submit_remove(1)
            writer.flush()
            h_now = writer.engine.hypergraph
            for s, metric in [(1, "connected_components"), (2, "pagerank")]:
                response = ask(reader, {"op": "metric", "s": s, "metric": metric})
                assert response["ok"], response
                assert response["values"] == pytest.approx(
                    oracle_metric(h_now, s, metric)
                ), (s, metric)
            # Batched admission: far fewer group commits than records.
            stats = writer.admission_stats()
            assert stats.applied == 9
            assert stats.batches <= stats.applied

            # 3. Compaction swaps in a new generation; the reader hot-reloads
            #    (old mmaps swept) and keeps serving identical values.
            assert writer.compact()
            for s, metric in [(1, "connected_components"), (2, "pagerank")]:
                response = ask(reader, {"op": "metric", "s": s, "metric": metric})
                assert response["ok"], response
                assert response["generation"] == 1, response
                assert response["values"] == pytest.approx(
                    oracle_metric(h_now, s, metric)
                ), (s, metric)

            # 4. More updates after the compaction are picked up too.
            writer.submit_add(random_members(writer.engine.hypergraph, rng))
            writer.flush()
            response = ask(reader, {"op": "metric", "s": 2, "metric": "pagerank"})
            assert response["values"] == pytest.approx(
                oracle_metric(writer.engine.hypergraph, 2, "pagerank")
            )

    def test_reader_components_and_sweep_requests(self, store_path, reader):
        with QueryService(store_path) as writer:
            writer.submit_add([0, 1, 2, 3, 4])
            writer.flush()
            counts = ask(reader, {"op": "sweep", "s_min": 1, "s_max": 3})
            expected = writer.sweep(range(1, 4))
            assert counts["edge_counts"] == {
                str(s): n for s, n in expected.edge_counts.items()
            }
            components = ask(reader, {"op": "components", "s": 1})
            assert components["count"] == writer.num_components(1)

    def test_second_writer_process_is_locked_out(self, store_path):
        with QueryService(store_path):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--path", store_path],
                env=harness_env(),
                input="",
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode != 0
            assert "StoreLockHeldError" in proc.stderr

#!/usr/bin/env python
"""Multi-machine read replicas: a mirror bootstrapped purely over TCP.

PR 4's remote serving still required every replica to *see* the store
directory (a shared filesystem).  This example removes that: the replica
server mirrors the writer's store into its **own directory** using only
the socket protocol's replication ops (``repl_manifest`` /
``repl_fetch`` / ``repl_wal``) — the only channel between the two
"machines" is TCP.

1. **build** — persist the overlap index of a surrogate dataset once;
2. **writer server** (this process) — a :class:`repro.service.QueryService`
   holding the single-writer lock, fronted by a
   :class:`~repro.service.SocketServer`;
3. **remote replica server** — a separate OS process running
   ``python -m repro replicate --from HOST:PORT --store DIR --serve`` on a
   *different* store directory: it bootstraps the mirror over the wire,
   serves it, and keeps pulling deltas (WAL tails between compactions,
   changed-shards-only after one);
4. **verification** — after every phase (snapshot, durable updates, a
   compaction delta-sync) the replica's served values must be
   byte-identical to the :class:`repro.core.pipeline.SLinePipeline`
   oracle on the writer's current hypergraph;
5. **crash safety** — a sync killed mid-fetch (fault-injected) leaves a
   mirror that still serves its previous state and recovers cleanly on
   the next sync.

Run:  python examples/remote_replication.py [--updates 30]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from repro.core.pipeline import SLinePipeline
from repro.generators.datasets import available_datasets, load_dataset
from repro.service import QueryService, ServiceClient, SocketServer
from repro.store import (
    IndexStore,
    LocalReplicationSource,
    PersistentQueryEngine,
    StoreMirror,
)
from repro.utils.rng import make_rng

QUERIES = (("pagerank", 2), ("components", 1), ("components", 2))


def oracle_answers(h) -> dict:
    """The single-process five-stage pipeline, serialised like the wire."""
    answers = {}
    for kind, s in QUERIES:
        if kind == "components":
            pipeline = SLinePipeline(metrics=("connected_components",))
            answers[f"components/{s}"] = pipeline.run(h, s).num_components()
        else:
            pipeline = SLinePipeline(
                metrics=(kind,), drop_empty_edges=False, drop_isolated_vertices=False
            )
            values = pipeline.run(h, s).metric_by_hyperedge(kind)
            answers[f"{kind}/{s}"] = json.dumps(
                {str(k): float(v) for k, v in values.items()}, sort_keys=True
            )
    return answers


def served_answers(client: ServiceClient) -> dict:
    answers = {}
    for kind, s in QUERIES:
        if kind == "components":
            answers[f"components/{s}"] = client.components(s)
        else:
            response = client.request({"op": "metric", "s": s, "metric": kind})
            answers[f"{kind}/{s}"] = json.dumps(response["values"], sort_keys=True)
    return answers


def wait_for(predicate, timeout=60.0, what="condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.05)


class KilledSync(Exception):
    """Stands in for SIGKILL at an arbitrary point of a sync."""


class FlakySource:
    """Replication source that dies after a few fetch chunks."""

    def __init__(self, inner, fail_after):
        self._inner, self.fail_after, self.fetches = inner, fail_after, 0

    def repl_manifest(self):
        return self._inner.repl_manifest()

    def repl_wal_suffix(self, generation, after_bytes, next_seq):
        return self._inner.repl_wal_suffix(generation, after_bytes, next_seq)

    def repl_fetch(self, name, generation, offset, length):
        self.fetches += 1
        if self.fetches > self.fail_after:
            raise KilledSync()
        return self._inner.repl_fetch(name, generation, offset, length)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="email-euall", choices=available_datasets())
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--updates", type=int, default=30)
    args = parser.parse_args()
    workdir = tempfile.mkdtemp()
    store_path = os.path.join(workdir, "writer-store")
    mirror_path = os.path.join(workdir, "replica-mirror")  # a different "machine"

    # 1. Build the writer's store.
    h = load_dataset(args.dataset, scale=args.scale, seed=0)
    IndexStore.build(h, store_path, num_shards=8)
    print(f"writer store built at {store_path}: {h.num_edges} hyperedges")

    # 2. Writer service + socket server (this process).
    writer = QueryService(store_path, max_batch=32)
    writer_server = SocketServer(writer, port=0).start()
    print(f"writer serving on {writer_server.host}:{writer_server.port}")

    # 3. Remote replica: replicate --serve in its own process + directory.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    replica_proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "replicate",
            "--from", f"{writer_server.host}:{writer_server.port}",
            "--store", mirror_path,
            "--serve", "127.0.0.1:0",
            "--poll-interval", "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    synced = json.loads(replica_proc.stdout.readline())
    print(
        f"mirror bootstrapped over TCP: generation {synced['generation']}, "
        f"{synced['fetched_files']} files / {synced['fetched_bytes']} bytes fetched"
    )
    listening = json.loads(replica_proc.stdout.readline())
    replica_address = (listening["host"], listening["port"])
    print(f"replica serving on {replica_address[0]}:{replica_address[1]}")

    def run_phase(phase: str, client: ServiceClient) -> None:
        expected = oracle_answers(writer.engine.hypergraph)
        observed = served_answers(client)
        ok = observed == expected
        print(
            f"  phase {phase!r}: generation {client.generation()} -> "
            f"{'BYTE-IDENTICAL' if ok else 'MISMATCH'}"
        )
        assert ok, f"replica diverged from the oracle in phase {phase}"

    try:
        with ServiceClient(*writer_server.address) as updater, ServiceClient(
            *replica_address
        ) as reader:
            print("phase 1: snapshot (no shared filesystem anywhere)")
            run_phase("snapshot", reader)

            # Durable updates over the wire; the mirror pulls WAL tails.
            rng = make_rng(1)
            start = time.perf_counter()
            for i in range(args.updates):
                members = sorted(set(int(v) for v in rng.choice(h.num_vertices, size=5)))
                updater.add(members, wait=True)
                if i % 10 == 9:
                    updater.remove(int(rng.integers(h.num_edges)), wait=True)
            elapsed = time.perf_counter() - start
            print(
                f"phase 2: {args.updates} durable updates over TCP in {elapsed:.2f}s; "
                "waiting for the mirror's WAL-tail delta sync"
            )
            fingerprint = writer.engine.fingerprint()
            wait_for(
                lambda: reader.fingerprint() == fingerprint,
                what="mirror to replay the WAL tail",
            )
            run_phase("updated", reader)

            # Compaction: the mirror delta-syncs the new generation (only
            # changed shards cross the wire) and hot-swaps it mid-serve.
            generation = updater.compact()
            print(f"phase 3: writer compacted to generation {generation}")
            wait_for(
                lambda: reader.generation() == generation,
                what="mirror to pull the compacted generation",
            )
            run_phase("compacted", reader)

        # 5. Crash safety: a sync killed mid-fetch, then a clean recovery.
        print("phase 4: killing a sync mid-fetch (fault-injected)")
        victim_path = os.path.join(workdir, "killed-mirror")
        source = LocalReplicationSource(store_path)
        try:
            StoreMirror(FlakySource(source, fail_after=3), victim_path).sync()
            raise RuntimeError("the fault injection did not fire")
        except KilledSync:
            pass
        assert not IndexStore.exists(victim_path)  # nothing half-installed
        StoreMirror(source, victim_path).sync()  # a fresh sync finishes the job
        killed_engine = PersistentQueryEngine.open(victim_path, read_only=True)
        assert killed_engine.fingerprint() == writer.engine.fingerprint()
        assert killed_engine.metric_by_hyperedge(
            2, "pagerank"
        ) == writer.engine.metric_by_hyperedge(2, "pagerank")
        print("  killed mirror recovered cleanly and serves oracle values")
    finally:
        replica_proc.terminate()
        replica_proc.wait(timeout=30)
        replica_proc.stdout.close()
        writer_server.close()
        writer.close()
    print("all phases byte-identical: multi-machine replication verified")


if __name__ == "__main__":
    main()

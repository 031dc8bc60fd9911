#!/usr/bin/env python
"""One writer, N reader processes, one shared store — the serving layer.

This example stands up the concurrent topology the service subsystem
targets:

1. **build** — persist the overlap index of a surrogate dataset once;
2. **writer process** (this process) — a :class:`repro.service.QueryService`
   holding the single-writer lock, admitting a stream of hyperedge updates
   through the async batched :class:`~repro.service.AdmissionQueue`
   (one WAL fsync per coalesced batch, futures as durability acks) with a
   :class:`~repro.service.CompactionPolicy` folding the log in the
   background;
3. **reader processes** — ``N`` independent OS processes, each serving
   s-metric queries from a hot-reloading
   :class:`~repro.service.ReadReplica`; they observe the writer's batches
   and compactions purely through the store directory (change-token
   polling), no IPC;
4. **verification** — every reader's final answers are compared against a
   from-scratch engine on the writer's final hypergraph.

Run:  python examples/concurrent_service.py [--readers 3] [--updates 60]
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import tempfile
import time

from repro.generators.datasets import available_datasets, load_dataset
from repro.service import CompactionPolicy, QueryService, ReadReplica, StoreLock
from repro.store import IndexStore
from repro.utils.rng import make_rng


def reader_process(store_path: str, reader_id: int, ready, stop_flag, results) -> None:
    """Serve queries until told to stop; report the final served state."""
    replica = ReadReplica(store_path)
    ready.wait()  # writer starts streaming once every replica is up
    queries = 0
    while not stop_flag.is_set():
        replica.metric(2, "connected_components")
        replica.line_graph(3)
        queries += 1
    # Final consistent read after the writer went quiet.
    replica.refresh()
    results[reader_id] = {
        "queries": queries,
        "reloads": replica.reloads,
        "generation": replica.generation,
        "fingerprint": replica.fingerprint(),
        "pagerank": replica.metric_by_hyperedge(2, "pagerank"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default=None, help="store directory (default: temp)")
    parser.add_argument("--dataset", default="email-euall", choices=available_datasets())
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--readers", type=int, default=3)
    parser.add_argument("--updates", type=int, default=60)
    args = parser.parse_args()
    store_path = args.store or os.path.join(tempfile.mkdtemp(), "idx")

    # 1. Build the shared store.
    h = load_dataset(args.dataset, scale=args.scale, seed=0)
    IndexStore.build(h, store_path, num_shards=8)
    print(f"store built at {store_path}: {h.num_edges} hyperedges")

    # 2. Start the reader fleet (separate OS processes).
    ctx = mp.get_context("spawn")
    ready = ctx.Barrier(args.readers + 1)
    stop_flag = ctx.Event()
    results = ctx.Manager().dict()
    readers = [
        ctx.Process(
            target=reader_process, args=(store_path, i, ready, stop_flag, results)
        )
        for i in range(args.readers)
    ]
    for proc in readers:
        proc.start()

    # 3. The writer: async admission + background compaction.
    policy = CompactionPolicy(max_wal_records=25)
    rng = make_rng(1)
    with QueryService(
        store_path, compaction=policy, compaction_poll_interval=0.05, max_batch=32
    ) as writer:
        print(f"writer holds {StoreLock(store_path).holder()}")
        ready.wait()  # every reader replica is open and serving
        start = time.perf_counter()
        futures = []
        for i in range(args.updates):
            members = sorted(
                set(int(v) for v in rng.choice(h.num_vertices, size=5))
            )
            futures.append(writer.submit_add(members))
            if i % 10 == 9:
                writer.submit_remove(int(rng.integers(h.num_edges)))
            time.sleep(0.005)  # a trickle, so readers interleave reloads
        writer.flush()
        elapsed = time.perf_counter() - start
        stats = writer.admission_stats()
        print(
            f"admitted {stats.applied} updates in {elapsed:.2f}s over "
            f"{stats.batches} group commits "
            f"(largest batch {stats.largest_batch}); "
            f"generation now {writer.generation}"
        )

        # 4. Stop the readers and verify every replica converged.
        stop_flag.set()
        for proc in readers:
            proc.join(timeout=30)
        expected_fp = writer.engine.fingerprint()
        expected_pr = writer.metric_by_hyperedge(2, "pagerank")
        for reader_id in sorted(results.keys()):
            info = results[reader_id]
            ok = (
                info["fingerprint"] == expected_fp
                and info["pagerank"] == expected_pr
            )
            print(
                f"reader {reader_id}: {info['queries']} queries, "
                f"{info['reloads']} hot reloads, generation {info['generation']} "
                f"-> {'CONSISTENT' if ok else 'MISMATCH'}"
            )
            assert ok, f"reader {reader_id} diverged from the writer"
    print("writer closed; lock released")


if __name__ == "__main__":
    main()

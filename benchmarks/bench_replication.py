"""Snapshot replication — delta sync vs full re-fetch over the socket.

The replication subsystem's contract: a mirror that is *almost* current
should pay for what changed, not for the whole store.  After a
small-WAL compaction every shard file is *renamed* (generation prefix)
but few change *content* — the delta sync must satisfy the unchanged
ones from the local previous generation (checksum match, hard link)
and only pull the changed shards plus the manifest over the wire.

This benchmark serves a store over a real :class:`SocketServer` (the
fetch path pays binary framing + TCP exactly as production does), applies
a remove-only update + compaction, and times

* **delta** — an existing mirror syncing the new generation;
* **full** — a fresh mirror bootstrapping the same generation from zero.

The delta path must be at least 5x faster end to end (3x in quick mode),
and both mirrors must be byte-identical to the source.

The cursor-vs-record-replay race (``replication_cursor``, 4.1-4.2x
against a 3x floor in every run since PR 9) was retired with the
record-replay follower it used as its baseline arm: a ratio needs both
arms, and the loser is deleted.  The cursor path's absolute cost stays
measured by the ``write_follow`` workload and the per-layer
``replication.*`` metrics of ``benchmarks/e2e``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.benchmarks import quick_mode
from repro.service import QueryService, ServiceClient, SocketServer
from repro.store import StoreMirror
from repro.store.store import IndexStore

NUM_SHARDS = 48

BENCH_QUICK = quick_mode()
BENCH_SCALE = 2.0 if BENCH_QUICK else 4.0
MIN_SPEEDUP = 3.0 if BENCH_QUICK else 5.0
ROUNDS = 2 if BENCH_QUICK else 3


@pytest.fixture(scope="module")
def bench_hypergraph(datasets):
    return datasets("email-euall", scale=BENCH_SCALE)


def _store_files(path):
    skip = {"replication.json", "writer.lock"}
    out = {}
    for root, _, files in os.walk(str(path)):
        for name in files:
            if name in skip or name.endswith((".sync", ".staged")):
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, str(path)).replace(os.sep, "/")
            with open(full, "rb") as handle:
                out[rel] = handle.read()
    return out


def test_delta_sync_speedup_over_full_refetch(bench_hypergraph, tmp_path, report):
    """Delta sync after a small-WAL compaction must be >= 5x faster than a
    full re-fetch of the same generation (3x in quick mode)."""
    store_path = str(tmp_path / "src")
    IndexStore.build(bench_hypergraph, store_path, num_shards=NUM_SHARDS)

    delta_seconds = float("inf")
    full_seconds = float("inf")
    delta_report = None
    full_report = None
    with QueryService(store_path, max_batch=16) as writer:
        with SocketServer(writer, port=0) as server:
            with ServiceClient(server.host, server.port) as client:
                mirror = StoreMirror(client, str(tmp_path / "mirror"))
                mirror.sync()  # warm bootstrap (not timed)

                for round_id in range(ROUNDS):
                    # A small WAL (remove-only keeps the row partition
                    # stable), folded into a fresh generation.
                    writer.submit_remove(round_id).result()
                    writer.compact()
                    # Warm the source's per-generation checksum cache
                    # (computed once per generation, shared by the whole
                    # mirror fleet) so neither timed path pays it.
                    client.repl_manifest()

                    start = time.perf_counter()
                    delta_report = mirror.sync()
                    delta_seconds = min(delta_seconds, time.perf_counter() - start)

                    fresh_path = str(tmp_path / f"full-{round_id}")
                    fresh = StoreMirror(client, fresh_path)
                    start = time.perf_counter()
                    full_report = fresh.sync()
                    full_seconds = min(full_seconds, time.perf_counter() - start)

                    source_files = _store_files(store_path)
                    assert _store_files(mirror.path) == source_files
                    assert _store_files(fresh_path) == source_files

    # The delta genuinely reused local content instead of re-fetching.
    assert delta_report.reused_files > 0
    assert delta_report.fetched_bytes < full_report.fetched_bytes

    speedup = full_seconds / delta_seconds
    report(
        f"Snapshot replication (email-euall surrogate x{BENCH_SCALE}, "
        f"{NUM_SHARDS} shards, remove-only WAL + compaction, loopback TCP)\n"
        f"full re-fetch:  {full_seconds:.4f}s "
        f"({full_report.fetched_files} files, {full_report.fetched_bytes} bytes)\n"
        f"delta sync:     {delta_seconds:.4f}s "
        f"({delta_report.fetched_files} fetched, {delta_report.reused_files} reused, "
        f"{delta_report.fetched_bytes} bytes)\n"
        f"speedup:        {speedup:.1f}x (floor {MIN_SPEEDUP:.1f}x)",
        name="replication",
        data={
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "full_seconds": full_seconds,
            "delta_seconds": delta_seconds,
            "delta_fetched_bytes": delta_report.fetched_bytes,
            "full_fetched_bytes": full_report.fetched_bytes,
        },
    )
    assert speedup >= MIN_SPEEDUP

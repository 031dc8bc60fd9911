"""In-process layer probe: each layer's public calls, timed from outside.

Runs in the harness process on private copies of a store built from the
scale-2 dataset of the run's seed — the same inputs the served workloads
use — while no server is busy.  It is the same on every workload, so each
``--trace 1`` run re-measures it; what differs per workload is the traced
table and the client-observed numbers, computed in ``run.py``.

Every number is the median of a few calls (sample counts are returned
beside the values).  Counts listed in ``e2e_spec.EXACT_COUNTERS`` come
from fixed-size inputs and must repeat exactly for one seed.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.pipeline import METRIC_FUNCTIONS, SLinePipeline
from repro.engine.engine import QueryEngine, with_appended_edge
from repro.engine.index import OverlapIndex, overlap_counts_for_members
from repro.hypergraph.hypergraph import Hypergraph
from repro.service import QueryService
from repro.service.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    LENGTH_PREFIX,
    decode_binary_frame,
    decode_payload,
    encode_binary_frame,
    encode_frame,
)
from repro.store import IndexStore, LocalReplicationSource, StoreMirror

import e2e_spec as spec
import e2e_stats as stats
from e2e_topology import Topology, UpdateModel, copy_store, dir_bytes

CC = "connected_components"
SWEEP_RANGE = list(range(1, spec.SWEEP_S_MAX + 1))
GROUP = spec.FOLLOW_BATCH_SIZE  # records per WAL group commit / delta sync


class Probe:
    """Collects ``name -> samples`` and reports medians with their counts."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.values: Dict[str, float] = {}

    def time(self, name: str, scale: float, function: Callable, *args, **kwargs):
        """Run once, record seconds x ``scale`` (1 for s, 1000 for ms)."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        self.samples.setdefault(name, []).append((time.perf_counter() - start) * scale)
        return result

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def result(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        values = {name: stats.median(samples) for name, samples in self.samples.items()}
        values.update(self.values)
        counts = {name: len(samples) for name, samples in self.samples.items()}
        counts.update({name: 1 for name in self.values})
        return values, counts


def _prepare_adds(model: UpdateModel, h: Hypergraph, count: int):
    """``count`` real add records (members, overlap row, post-add fingerprint).

    Prepared outside the timed region so WAL timings hold appends only.
    """
    records = []
    for _ in range(count):
        members = np.asarray(model.draw_members(), dtype=np.int64)
        pair_ids, pair_weights = overlap_counts_for_members(h, members)
        edge_id = h.num_edges
        h = with_appended_edge(h, members, None)
        records.append(((edge_id, members, pair_ids, pair_weights), h.fingerprint()))
    return h, records


def run_layer_probe(
    topo: Topology, h: Hypergraph, seed: int, reps: int = 5
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Time every layer's public calls; ``reps`` scales the sample counts."""
    probe = Probe()
    few = max(1, reps // 2)

    # -- core / smetrics: the paper's Table I stages ------------------------ #
    for _ in range(few):
        pipeline = SLinePipeline(algorithm="hashmap", metrics=(CC,))
        result = probe.time("core.pipeline_s", 1.0, pipeline.run, h, s=2)
        stages = result.stage_times.as_dict()
        for stage, name in (
            ("preprocessing", "core.preprocess_s"),
            ("s_overlap", "core.s_overlap_s"),
            ("squeeze", "core.squeeze_s"),
            (CC, "smetrics.cc_s"),
        ):
            probe.samples.setdefault(name, []).append(float(stages.get(stage, 0.0)))
    probe.set("core.wedges_visited", result.workload.total_wedges())
    probe.set("core.line_graph_edges", result.num_line_graph_edges)

    # -- engine index build, store snapshot write --------------------------- #
    index = probe.time("engine.index_build_s", 1.0, OverlapIndex.build, h)
    pristine = topo.path("probe-store")
    probe.time(
        "store.snapshot_write_s",
        1.0,
        IndexStore.from_index,
        index,
        h.fingerprint(),
        pristine,
        num_shards=spec.NUM_SHARDS,
        hypergraph=h,
    )
    # Data files only: the manifest's creation-time float varies in length.
    data_bytes = dir_bytes(pristine) - os.path.getsize(os.path.join(pristine, "manifest.json"))
    probe.set("store.bytes_per_pair", data_bytes / max(1, index.num_pairs))

    # -- store read path: open, first and repeated threshold view ----------- #
    for _ in range(reps):
        start = time.perf_counter()
        sharded = IndexStore.open(pristine, read_only=True).sharded_index()
        probe.samples.setdefault("store.open_ms", []).append(
            (time.perf_counter() - start) * 1000.0
        )
        line_graph = probe.time("store.line_graph_cold_ms", 1000.0, sharded.line_graph, 2)
        probe.time("store.line_graph_warm_ms", 1000.0, sharded.line_graph, 2)
        shard_loads = sharded.shard_loads
        sharded.close()
    probe.set("store.shard_loads", shard_loads)
    for _ in range(reps):
        start = time.perf_counter()
        squeezed, _ = line_graph.squeeze()
        graph = squeezed.to_graph(squeezed=False)
        probe.samples.setdefault("core.squeeze_ms", []).append(
            (time.perf_counter() - start) * 1000.0
        )
        probe.time("smetrics.cc_ms", 1000.0, METRIC_FUNCTIONS[CC], graph)

    # -- engine: hits, misses, adds (no WAL: a plain engine over the shards) - #
    model = UpdateModel(h, seed)
    engine = QueryEngine(h, index=IndexStore.open(pristine, read_only=True).sharded_index())
    engine.sweep(SWEEP_RANGE, metrics=[CC])
    for i in range(20 * reps):
        probe.time("engine.metric_hit_ms", 1000.0, engine.metric_by_hyperedge, 1 + i % 4, CC)
        probe.time("engine.sweep_hit_ms", 1000.0, engine.sweep, SWEEP_RANGE)
    for i in range(reps):
        probe.time("engine.add_ms", 1000.0, engine.add_hyperedge, model.draw_members())
        probe.time("engine.metric_miss_ms", 1000.0, engine.metric_by_hyperedge, 1 + i % 3, CC)
        if i < few:
            probe.time("engine.add_ms", 1000.0, engine.add_hyperedge, model.draw_members())
            probe.time("engine.sweep_miss_ms", 1000.0, engine.sweep, SWEEP_RANGE, metrics=[CC])
    engine.index.close()

    # -- service facade + wire codecs on the recorded metric response ------- #
    service = QueryService(copy_store(pristine, topo.path("probe-service")))
    try:
        sweep = {"op": "sweep", "s_min": 1, "s_max": spec.SWEEP_S_MAX}
        service.execute({**sweep, "metrics": [CC]})
        for i in range(20 * reps):
            request = {"op": "metric", "s": 1 + i % 4, "metric": CC, "columns": True}
            probe.time("service.execute_metric_ms", 1000.0, service.execute, request)
            request = {**sweep, "columns": True}
            probe.time("service.execute_sweep_ms", 1000.0, service.execute, request)
        columns = service.execute({"op": "metric", "s": 1, "metric": CC, "columns": True})
        plain = service.execute({"op": "metric", "s": 1, "metric": CC})
        model = UpdateModel(h, seed)
        for _ in range(GROUP):
            request = {"op": "add", "members": model.draw_members(), "wait": True}
            response = probe.time("service.execute_add_ms", 1000.0, service.execute, request)
            if not response.get("ok"):
                raise RuntimeError(f"layer probe add refused: {response}")
    finally:
        service.close()
    cap = DEFAULT_MAX_FRAME_BYTES
    for _ in range(10 * reps):
        frame_v2 = probe.time(
            "transport.encode_v2_ms", 1000.0, encode_binary_frame, columns, cap
        )
        body = frame_v2[LENGTH_PREFIX.size :]
        probe.time("transport.decode_v2_ms", 1000.0, decode_binary_frame, body, cap)
        frame_v1 = probe.time("transport.encode_v1_ms", 1000.0, encode_frame, plain, cap)
        body = frame_v1[LENGTH_PREFIX.size :]
        probe.time("transport.decode_v1_ms", 1000.0, decode_payload, body)
    probe.set("transport.metric_frame_bytes_v2", len(frame_v2))
    probe.set("transport.metric_frame_bytes_v1", len(frame_v1))

    # -- WAL appends, compaction, and a mirror following them --------------- #
    source_path = copy_store(pristine, topo.path("probe-source"))
    mirror = StoreMirror(LocalReplicationSource(source_path), topo.path("probe-mirror"))
    report = probe.time("replication.full_sync_s", 1.0, mirror.sync)
    probe.set("replication.full_sync_bytes", report.fetched_bytes)
    store = IndexStore.open(source_path)
    model = UpdateModel(h, seed)
    current, records = _prepare_adds(model, h, 4 * reps)
    for args, fingerprint in records:
        probe.time(
            "store.wal_append_ms", 1000.0, store.append_add, *args, fingerprint=fingerprint
        )
    mirror.sync()
    for round_index in range(reps):
        current, records = _prepare_adds(model, current, GROUP)
        wal_before = store.current_state_token()[1]
        start = time.perf_counter()
        with store.batch():
            for args, fingerprint in records:
                store.append_add(*args, fingerprint=fingerprint)
        probe.samples.setdefault("store.wal_group_ms", []).append(
            (time.perf_counter() - start) * 1000.0
        )
        report = probe.time("replication.delta_sync_ms", 1000.0, mirror.sync)
        if round_index == 0:
            wal_bytes = store.current_state_token()[1] - wal_before
            probe.set("store.wal_bytes_per_update", wal_bytes / GROUP)
            probe.set("replication.delta_bytes_per_update", wal_bytes / GROUP)
            probe.set("replication.delta_records", report.wal_records)
    probe.time("store.compact_s", 1.0, store.compact)
    probe.set("store.compact_bytes", dir_bytes(os.path.join(source_path, "shards")))
    report = probe.time("replication.gen_sync_ms", 1000.0, mirror.sync)
    files = report.reused_files + report.fetched_files
    probe.set("replication.reused_file_ratio", report.reused_files / files if files else 0.0)
    return probe.result()

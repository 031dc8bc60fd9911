"""Names, units, bounds and sizes of the end-to-end benchmark.

This module is the single declaration of what ``run.py`` emits:
``BENCHMARK.json`` at the repo root must equal :func:`benchmark_document`
(``test_e2e_harness.py`` checks it), and ``run.py`` builds every result
from the lists below, so it can emit nothing else.

Why the end-to-end list is short and generic: the driver's contract wants
*every* end-to-end metric from *every* workload, never zero.  An op-named
latency (``metric`` round trip, post-fsync ack, mirror delta sync) exists
on some workloads only, so those live under ``client.*`` in the per-layer
list, where a workload that never issues the op reports 0 with n=0.  What
every workload does have is a closed loop of *cycles*, a process under
test whose memory peaks, and a set-up.  What one cycle is on each
workload is the README's second table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

# --------------------------------------------------------------------- #
# Contract limits (the driver refuses a BENCHMARK.json outside them)
# --------------------------------------------------------------------- #
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
MAX_WORKLOADS = 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
MAX_WHY_CHARS = 200
BENCHMARK_KEYS = (
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
)

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Seconds one run measures.  Chosen so that set-up x3 + measured phase +
#: correctness gate stay near 25 s a run on the 2-core reference sandbox
#: (the driver makes 92 runs inside 3420 s).
RUN_SECONDS = 16

# --------------------------------------------------------------------- #
# Workloads (names are final; sizes are frozen here)
# --------------------------------------------------------------------- #
DATASET = "livejournal"
SERVED_SCALE = 2.0  # ~6.4k vertices, 8k hyperedges, ~215k pairs, 5.4 MB store
COLD_SCALE = 4.0  # ~12.8k vertices, 16k hyperedges, ~0.45M pairs, 12 MB store
SMOKE_SCALES = (0.5, 1.0)  # (served, cold) of ``--smoke``: wiring check only
NUM_SHARDS = 4
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
OP_TIMEOUT_S = 30.0  # every client call; a timed-out op is a failed op
HOT_S_VALUES = (1, 2, 3, 4)
CHURN_S_VALUES = (1, 2, 3)
SWEEP_S_MAX = 8
UPDATE_MEMBERS = 3  # a 3-member add invalidates every cached result at s <= 3
FOLLOW_SINGLES_PER_ROUND = 14
FOLLOW_BATCH_SIZE = 16
#: One background compaction per 80 WAL records, so that at least four
#: complete inside a half-length phase (8 s, ~480 updates): ISSUE.md sized
#: 300 for a fixed 1800 updates, which the 16 s run does not reach.
FOLLOW_SERVER_FLAGS = ("--compact-after", "80", "--max-batch", "64")

WORKLOADS: Dict[str, str] = {
    "cold_build": (
        "No server in the loop: pipeline + index build + serve restart at "
        "scale 4; core/smetrics/store.snapshot do all the work, the "
        "serving stack none"
    ),
    "read_hot": (
        "1 connection, every query an engine cache hit, so framing, "
        "sockets, RWLock read side and column conversion are the latency"
    ),
    "churn_query": (
        "1 connection, an acked update before every query makes each a "
        "guaranteed miss: index slice + WAL overlay, squeeze and CC dominate"
    ),
    "write_follow": (
        "Acked single + batched updates with background compaction while a "
        "StoreMirror follows; admission, WAL fsync and delta sync do the work"
    ),
}

@dataclass(frozen=True)
class Metric:
    """One reported metric; ``bound`` is set on end-to-end metrics only."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = -1.0

    def document(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "unit": self.unit,
            "better": self.better,
        }
        if self.bound >= 0:
            out["bound"] = self.bound
        return out


#: Wall-time metrics carry the largest bound the contract allows: on the
#: shared 2-vCPU sandbox the same code reads 5-15 % apart between runs
#: (neighbour noise on memory bandwidth; see README "Noise policy").
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    Metric("cycle_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Layers of the traced table: module names plus the two remainders.
TRACED_LAYERS = (
    "transport",
    "service",
    "engine",
    "store",
    "core",
    "smetrics",
    "replication",
    "untraced",
)


def _lower(unit: str, *names: str) -> List[Metric]:
    return [Metric(name, unit, "lower") for name in names]


PER_LAYER: Tuple[Metric, ...] = tuple(
    # -- in-process layer probe (same on every workload; scale-2 fixture) -- #
    _lower("s", "generators.dataset_s")
    + _lower("s", "core.preprocess_s", "core.s_overlap_s", "core.squeeze_s")
    + _lower("count", "core.wedges_visited", "core.line_graph_edges")
    + _lower("ms", "core.squeeze_ms")
    + _lower("s", "smetrics.cc_s")
    + _lower("ms", "smetrics.cc_ms")
    + _lower("s", "engine.index_build_s")
    + _lower(
        "ms",
        "engine.metric_hit_ms",
        "engine.sweep_hit_ms",
        "engine.metric_miss_ms",
        "engine.sweep_miss_ms",
        "engine.add_ms",
    )
    + _lower("s", "store.snapshot_write_s")
    + _lower("bytes", "store.bytes_per_pair")
    + _lower(
        "ms",
        "store.open_ms",
        "store.line_graph_cold_ms",
        "store.line_graph_warm_ms",
    )
    + _lower("count", "store.shard_loads")
    + _lower("ms", "store.wal_append_ms", "store.wal_group_ms")
    + _lower("bytes", "store.wal_bytes_per_update")
    + _lower("s", "store.compact_s")
    + _lower("bytes", "store.compact_bytes")
    + _lower(
        "ms",
        "service.execute_metric_ms",
        "service.execute_sweep_ms",
        "service.execute_add_ms",
    )
    + _lower(
        "ms",
        "transport.encode_v2_ms",
        "transport.decode_v2_ms",
        "transport.encode_v1_ms",
        "transport.decode_v1_ms",
    )
    + _lower("bytes", "transport.metric_frame_bytes_v2", "transport.metric_frame_bytes_v1")
    + _lower("s", "replication.full_sync_s")
    + _lower("bytes", "replication.full_sync_bytes")
    + _lower("ms", "replication.delta_sync_ms")
    + _lower("bytes", "replication.delta_bytes_per_update")
    + _lower("count", "replication.delta_records")
    + _lower("ms", "replication.gen_sync_ms")
    + [Metric("replication.reused_file_ratio", "ratio", "higher")]
    # -- the workload's own steps, by the module that owns them ---------- #
    + _lower("s", "core.pipeline_s", "store.index_build_s", "cli.warm_open_s")
    # -- client-observed, untraced sub-pass of the workload --------------- #
    + _lower(
        "ms",
        "client.metric_p50_ms",
        "client.metric_p95_ms",
        "client.sweep_p50_ms",
        "client.sweep_p95_ms",
        "client.ack_p50_ms",
        "client.ack_p95_ms",
        "client.batch_p50_ms",
        "client.sync_delta_p50_ms",
        "client.cycle_p95_ms",
    )
    + [Metric("client.acked_updates_per_s", "1/s", "higher")]
    + _lower(
        "ms",
        "transport.rtt_floor_ms",
        "transport.self_metric_ms",
        "transport.client_decode_ms",
        "transport.v1_metric_p50_ms",
        "transport.metric_p99_ms",
        "transport.sweep_p99_ms",
        "transport.components_p99_ms",
        "transport.ack_p99_ms",
    )
    # -- counters the program exposes (stats op deltas over the phase) ---- #
    + [
        Metric("engine.cache_hit_ratio", "ratio", "higher"),
        Metric("engine.cache_retained_ratio", "ratio", "higher"),
        Metric("store.fsyncs_per_update", "ratio", "lower"),
        Metric("store.compactions", "count", "lower"),
        Metric("service.mean_batch_size", "count", "higher"),
        Metric("service.largest_batch", "count", "higher"),
        Metric("service.conn2_throughput_ratio", "ratio", "higher"),
        Metric("harness.failed_ops_ratio", "ratio", "lower"),
    ]
    # -- traced sub-pass ------------------------------------------------- #
    + _lower("ms", "service.admission_wait_ms", "service.rwlock_wait_ms")
    + [Metric(f"{layer}.self_s", "s", "lower") for layer in TRACED_LAYERS]
    + [Metric(f"{layer}.self_share", "ratio", "lower") for layer in TRACED_LAYERS]
    + [
        Metric("obs.request_s", "s", "lower"),
        Metric("obs.trace_overhead_ratio", "ratio", "higher"),
    ]
)

#: Counters that must repeat bit-for-bit across runs of one seed.
EXACT_COUNTERS = (
    "core.wedges_visited",
    "core.line_graph_edges",
    "store.bytes_per_pair",
    "store.shard_loads",
    "store.wal_bytes_per_update",
    "transport.metric_frame_bytes_v2",
    "transport.metric_frame_bytes_v1",
    "replication.full_sync_bytes",
    "replication.delta_bytes_per_update",
    "replication.delta_records",
)


def benchmark_document() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must contain, key for key."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [metric.document() for metric in END_TO_END],
        "per_layer": [metric.document() for metric in PER_LAYER],
    }


def validate_document(doc: Dict[str, object]) -> List[str]:
    """Every way ``doc`` breaks the driver's contract (empty when valid)."""
    problems: List[str] = []
    if set(doc) != set(BENCHMARK_KEYS):
        problems.append(f"keys must be exactly {BENCHMARK_KEYS}, got {tuple(doc)}")
        return problems
    seen: set = set()

    def check_name(name: object, where: str) -> None:
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"{where}: bad name {name!r}")
        elif name in seen:
            problems.append(f"{where}: name {name!r} used twice")
        else:
            seen.add(name)

    workloads = doc["workloads"]
    if not 2 <= len(workloads) <= MAX_WORKLOADS:
        problems.append(f"need 2..{MAX_WORKLOADS} workloads, got {len(workloads)}")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload keys must be name+why: {entry}")
            continue
        check_name(entry["name"], "workloads")
        why = entry["why"]
        if not isinstance(why, str) or "\n" in why or not 0 < len(why) <= MAX_WHY_CHARS:
            problems.append(f"workload {entry['name']}: why must be one line <= 200 chars")
    for section, cap, keys in (
        ("end_to_end", MAX_END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", MAX_PER_LAYER, {"name", "unit", "better"}),
    ):
        entries = doc[section]
        if not 1 <= len(entries) <= cap:
            problems.append(f"{section}: need 1..{cap} metrics, got {len(entries)}")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section}: keys must be {sorted(keys)}: {entry}")
                continue
            check_name(entry["name"], section)
            if not UNIT_RE.match(str(entry["unit"])):
                problems.append(f"{section}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"{section}: bad direction {entry['better']!r}")
            if "bound" in keys and not 0 <= float(entry["bound"]) <= MAX_BOUND:
                problems.append(f"{section}: bound of {entry['name']} outside 0..{MAX_BOUND}")
    if not any(
        e.get("name") == "setup_s" and e.get("unit") == "s" and e.get("better") == "lower"
        for e in doc["end_to_end"]
    ):
        problems.append("end_to_end must hold setup_s (unit s, better lower)")
    run_seconds = doc["run_seconds"]
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    return problems

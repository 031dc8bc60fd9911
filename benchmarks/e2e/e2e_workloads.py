"""The four workloads: set-up, measured phase, correctness gate.

Load model: closed loop everywhere — each caller is a synchronous
:class:`~repro.service.transport.ServiceClient` that waits for its reply.
The harness is one process; ``write_follow`` drives two connections from
one thread, every other measured phase one connection.
Phases run until ``--seconds`` have passed and always finish the cycle
they started, so every recorded cycle is complete.

Every served answer is checked: in the loop against reference answers (or
for shape), and after the phase against the ``SLinePipeline`` oracle on the
harness's own model of the hypergraph.  A wrong answer is a failed op.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.harness import diff_stores, oracle_values_json
from repro.core.dispatch import s_line_graph_ensemble
from repro.hypergraph.hypergraph import Hypergraph
from repro.io.serialization import save_hypergraph_npz
from repro.service.transport import ServiceClient, TransportError
from repro.store.replication import ReplicationError, StoreMirror

import e2e_spec as spec
import e2e_stats as stats
from e2e_topology import Server, Topology, UpdateModel, build_store, copy_store, generate

CC = "connected_components"
SWEEP_RANGE = list(range(1, spec.SWEEP_S_MAX + 1))


class PhaseAborted(Exception):
    """An op failed or timed out; the phase stops (the run is incorrect)."""


@dataclass
class OpLog:
    """Per-thread record of attempted ops: latency samples, spans, failures."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    calls: List[Tuple[str, float, float]] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def call(self, op: str, function: Callable, *args, **kwargs):
        """Time one client call; any error or timeout fails the op and the phase."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except (TransportError, ReplicationError, OSError) as exc:
            self.wrong(op, f"{type(exc).__name__}: {exc}")
            raise PhaseAborted(op) from exc
        end = time.perf_counter()
        self.samples.setdefault(op, []).append((end - start) * 1000.0)
        self.calls.append((op, start, end))
        return result

    def wrong(self, op: str, why: str, count: int = 1) -> None:
        """Count ``count`` ops as failed (a wrong answer fails every op it affected)."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {why}")

    def check(self, op: str, condition: bool, why: str) -> None:
        if not condition:
            self.wrong(op, why)

    def merge(self, other: "OpLog") -> None:
        for op, values in other.samples.items():
            self.samples.setdefault(op, []).extend(values)
        self.calls.extend(other.calls)
        self.cycles.extend(other.cycles)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Phase:
    """One measured phase of one workload."""

    log: OpLog
    window: Tuple[float, float]
    #: Updates acknowledged post-fsync (single frames plus adds inside batch frames).
    updates_acked: int = 0
    stats_before: Dict[str, object] = field(default_factory=dict)
    stats_after: Dict[str, object] = field(default_factory=dict)
    sync_reports: List[Tuple[float, object, int]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def ok_ops(self) -> int:
        return self.log.attempted - self.log.failed

    @property
    def update_seconds(self) -> float:
        """Wall seconds spent inside update calls (single acks and batch frames)."""
        samples = self.log.samples
        return (sum(samples.get("ack", ())) + sum(samples.get("batch", ()))) / 1000.0


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
@dataclass
class ServedSetup:
    """A built store with a live server on it, and what standing it up cost."""

    h: Hypergraph
    store_path: str
    server: Server
    client: ServiceClient
    setup_seconds: List[float]
    dataset_seconds: List[float]
    build_seconds: List[float]
    open_seconds: List[float]
    #: Untouched copy of the built store (taken before any server opened it).
    pristine_path: Optional[str] = None


def open_server(
    topo: Topology, store_path: str, extra_args: Sequence[str] = (), traced: bool = False
) -> Tuple[Server, ServiceClient, float, int]:
    """Spawn a server and time spawn -> first answered ``components`` s=2."""
    start = time.perf_counter()
    server = topo.spawn_server(store_path, extra_args, traced=traced)
    client = topo.client(server)
    count = client.components(2)
    return server, client, time.perf_counter() - start, count


def served_setup(
    topo: Topology,
    scale: float,
    seed: int,
    repeats: int,
    extra_args: Sequence[str] = (),
    keep_pristine: bool = False,
) -> ServedSetup:
    """Dataset generation + store build + server spawn until the first ok reply.

    Done ``repeats`` times from scratch (``setup_s`` is the median); the
    last repetition's server is the one the workload measures.
    """
    totals: List[float] = []
    gens: List[float] = []
    builds: List[float] = []
    opens: List[float] = []
    for rep in range(repeats):
        h, gen_s = generate(scale, seed)
        store_path = topo.path("store")
        build_s = build_store(h, store_path)
        pristine = copy_store(store_path, topo.path("pristine")) if keep_pristine else None
        server, client, open_s, _ = open_server(topo, store_path, extra_args)
        gens.append(gen_s)
        builds.append(build_s)
        opens.append(open_s)
        totals.append(gen_s + build_s + open_s)
        if rep + 1 < repeats:
            client.close()
            topo.stop(server.process)
    return ServedSetup(h, store_path, server, client, totals, gens, builds, opens, pristine)


# --------------------------------------------------------------------- #
# read_hot
# --------------------------------------------------------------------- #
@dataclass
class HotReference:
    """Answers every hot query must repeat; gated against the oracle once."""

    metric: Dict[int, Dict[int, float]]
    sweep: Dict[str, Dict[int, int]]
    components: Dict[int, int]


def warm_read_hot(client: ServiceClient) -> HotReference:
    """Fill the engine cache, then take the reference answers (all hits)."""
    client.sweep(s_min=1, s_max=spec.SWEEP_S_MAX, metrics=[CC])
    return HotReference(
        metric={s: client.metric(s, CC) for s in spec.HOT_S_VALUES},
        sweep=client.sweep(s_min=1, s_max=spec.SWEEP_S_MAX),
        components={s: client.components(s) for s in spec.HOT_S_VALUES},
    )


def _hot_loop(client: ServiceClient, ref: HotReference, deadline: float, log: OpLog) -> None:
    """Rotations over s = 1..4 of [metric, sweep, components] until the deadline.

    A reply's size depends on s, so the recorded cycle is one whole
    rotation: every cycle does the same work and its median is unimodal.
    """
    try:
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            for s in spec.HOT_S_VALUES:
                values = log.call("metric", client.metric, s, CC)
                log.check("metric", values == ref.metric[s], f"s={s} differs from reference")
                counts = log.call("sweep", client.sweep, s_min=1, s_max=spec.SWEEP_S_MAX)
                log.check("sweep", counts == ref.sweep, "counts differ from reference")
                count = log.call("components", client.components, s)
                log.check("components", count == ref.components[s], f"s={s} differs")
            log.cycles.append((time.perf_counter() - start) * 1000.0)
    except PhaseAborted:
        pass


def hot_phase(clients: Sequence[ServiceClient], ref: HotReference, seconds: float) -> Phase:
    """Every client cycles metric / sweep / components on its own thread."""
    logs = [OpLog() for _ in clients]
    before = clients[0].stats()
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=_hot_loop, args=(client, ref, deadline, log))
        for client, log in zip(clients, logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * spec.OP_TIMEOUT_S)
    end = time.perf_counter()
    merged = OpLog()
    for thread, log in zip(threads, logs):
        if thread.is_alive():
            log.wrong("thread", "connection loop did not finish")
        merged.merge(log)
    phase = Phase(merged, (start, end), stats_before=before)
    phase.stats_after = clients[0].stats()
    return phase


def phase_read_hot(client: ServiceClient, seconds: float) -> Tuple[Phase, HotReference]:
    """One connection on a hot cache.

    One, not two: a second connection driven from this process adds a
    tenth of throughput at most (the server's handler threads share one
    GIL, and so do the harness's client threads) but makes both sides queue
    for their GIL, so latencies turn bimodal and 16 s windows of one run
    differ by 10-20 %.
    What a second connection does to the server is measured apart, by
    ``second_connection_ratio`` in the per-layer pass.
    """
    ref = warm_read_hot(client)
    return hot_phase([client], ref, seconds), ref


def second_connection_ratio(
    topo: Topology, server: Server, client: ServiceClient, ref: HotReference, seconds: float
) -> Tuple[stats.Ratio, OpLog]:
    """Hot-loop throughput of two concurrent connections over that of one."""
    one = hot_phase([client], ref, seconds)
    two = hot_phase([client, topo.client(server)], ref, seconds)
    ratio = stats.Ratio(two.ok_ops / two.wall_seconds, one.ok_ops / one.wall_seconds)
    one.log.merge(two.log)
    return ratio, one.log


def gate_read_hot(
    client: ServiceClient, h: Hypergraph, ref: HotReference, replies_per_s: int, log: OpLog
) -> None:
    """Reference answers (which every hot reply equalled) against the oracle.

    A reference that diverges fails all ``replies_per_s`` replies that matched it.
    """
    for s in spec.HOT_S_VALUES:
        by_edge = {str(edge): value for edge, value in ref.metric[s].items()}
        served = json.dumps(by_edge, sort_keys=True)
        if served != oracle_values_json(h, s, CC):
            log.wrong("metric", f"s={s} diverges from the SLinePipeline oracle", replies_per_s)
        labels = ref.metric[s].values()
        expected = int(max(labels)) + 1 if labels else 0
        if ref.components[s] != expected:
            log.wrong("components", f"s={s} count != oracle labels", replies_per_s)
    ensemble = s_line_graph_ensemble(h, SWEEP_RANGE)
    expected_sweep = {
        "edge_counts": {s: int(n) for s, n in ensemble.edge_counts().items()},
        "active_counts": {s: int(ensemble[s].num_active_vertices) for s in SWEEP_RANGE},
    }
    if ref.sweep != expected_sweep:
        log.wrong(
            "sweep",
            "counts diverge from the Algorithm 3 ensemble",
            replies_per_s * len(spec.HOT_S_VALUES),
        )
    log.check("fingerprint", client.fingerprint() == h.fingerprint(), "server state drifted")


# --------------------------------------------------------------------- #
# churn_query / write_follow: updates
# --------------------------------------------------------------------- #
def _acked_update(client: ServiceClient, model: UpdateModel, remove: bool, log: OpLog) -> None:
    """One single-frame ``wait=true`` add (or remove of the oldest bench edge)."""
    victim = model.oldest_added() if remove else None
    if victim is not None:
        removed = log.call("ack", client.remove, victim)
        log.check("ack", removed, f"remove of edge {victim} not acknowledged")
        model.applied_remove(victim)
    else:
        members = model.draw_members()
        edge_id = log.call("ack", client.add, members)
        in_order = model.applied_adds([(edge_id, members)])
        log.check("ack", in_order, f"add got unexpected id {edge_id}")


def gate_model(
    client: ServiceClient, model: UpdateModel, s_values: Sequence[int], log: OpLog
) -> None:
    """Served state and answers against the oracle on the harness's model."""
    h = model.hypergraph()
    log.check(
        "fingerprint",
        client.fingerprint() == h.fingerprint(),
        "served hypergraph differs from the harness model (lost or phantom update)",
    )
    for s in s_values:
        response = client.request({"op": "metric", "s": s, "metric": CC})
        served = json.dumps(response["values"], sort_keys=True)
        log.check(
            "metric", served == oracle_values_json(h, s, CC), f"s={s} diverges from the oracle"
        )


#: Iterations per recorded churn cycle: each s twice, then the one sweep.
CHURN_ROTATION = 6


def phase_churn_query(client: ServiceClient, model: UpdateModel, seconds: float) -> Phase:
    """Update, then query what the update just invalidated; one connection.

    Per iteration: an acked add (every 4th: remove of the oldest bench edge),
    then ``metric`` at s = 1 + i % 3; after every 6th iteration one ``sweep``
    s = 1..8 with cc.  Miss cost depends on s, so the recorded cycle is the
    whole 6-iteration rotation.
    """
    client.sweep(s_min=1, s_max=spec.SWEEP_S_MAX, metrics=[CC])  # warm: misses are earned
    log = OpLog()
    before = client.stats()
    start = time.perf_counter()
    deadline = start + seconds
    acked = 0
    i = 0
    try:
        while time.perf_counter() < deadline:
            cycle_start = time.perf_counter()
            for _ in range(CHURN_ROTATION):
                _acked_update(client, model, remove=i % 4 == 3, log=log)
                acked += 1
                s = spec.CHURN_S_VALUES[i % len(spec.CHURN_S_VALUES)]
                values = log.call("metric", client.metric, s, CC)
                log.check("metric", len(values) > 0, f"s={s} answered empty")
                i += 1
            counts = log.call(
                "sweep", client.sweep, s_min=1, s_max=spec.SWEEP_S_MAX, metrics=[CC]
            )
            log.check("sweep", len(counts["edge_counts"]) == spec.SWEEP_S_MAX, "short sweep")
            log.cycles.append((time.perf_counter() - cycle_start) * 1000.0)
    except PhaseAborted:
        pass
    end = time.perf_counter()
    phase = Phase(log, (start, end), acked, stats_before=before)
    phase.stats_after = client.stats()
    return phase


class RecordingSource:
    """The mirror's replication source; logs each wire call's interval.

    Errors propagate untouched, so a failed wire call fails the ``sync`` op
    that made it (and only that op is counted).
    """

    def __init__(self, client: ServiceClient) -> None:
        self._client = client
        self.calls: List[Tuple[str, float, float]] = []

    def _timed(self, op: str, function: Callable, *args):
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.calls.append((op, start, time.perf_counter()))

    def repl_manifest(self):
        return self._timed("wire.repl_manifest", self._client.repl_manifest)

    def repl_wal(self, generation, after_seq):
        return self._timed("wire.repl_wal", self._client.repl_wal, generation, after_seq)

    def repl_wal_suffix(self, generation, after_bytes, next_seq):
        return self._timed(
            "wire.repl_wal", self._client.repl_wal_suffix, generation, after_bytes, next_seq
        )

    def repl_fetch(self, name, generation, offset, length):
        return self._timed(
            "wire.repl_fetch", self._client.repl_fetch, name, generation, offset, length
        )


def phase_write_follow(
    topo: Topology,
    server: Server,
    writer: ServiceClient,
    model: UpdateModel,
    seconds: float,
) -> Tuple[Phase, str, StoreMirror]:
    """Connection A writes rounds of updates; connection B's mirror follows."""
    log = OpLog()
    follower = topo.client(server)
    mirror_path = topo.path("mirror")
    source = RecordingSource(follower)
    mirror = StoreMirror(source, mirror_path)
    bootstrap_start = time.perf_counter()
    bootstrap = mirror.sync()
    bootstrap_seconds = time.perf_counter() - bootstrap_start
    before = writer.stats()
    start = time.perf_counter()
    deadline = start + seconds
    acked = 0
    reports: List[Tuple[float, object, int]] = []
    wal_path = os.path.join(mirror_path, "wal.log")
    try:
        while time.perf_counter() < deadline:
            cycle_start = time.perf_counter()
            for j in range(spec.FOLLOW_SINGLES_PER_ROUND):
                _acked_update(writer, model, remove=j % 4 == 3, log=log)
                acked += 1
            adds = [model.draw_members() for _ in range(spec.FOLLOW_BATCH_SIZE)]
            results = log.call(
                "batch",
                writer.batch,
                [{"op": "add", "members": members, "wait": True} for members in adds],
            )
            refused = [result for result in results if not result.get("ok")]
            if refused:
                log.wrong("batch", f"nested adds refused: {refused[:2]}", len(refused))
            else:
                in_order = model.applied_adds(
                    [(result["edge_id"], members) for members, result in zip(adds, results)]
                )
                log.check("batch", in_order, "nested adds did not get the next 16 edge ids")
                acked += len(adds)
            wal_before = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
            generation_before = mirror.generation
            sync_start = time.perf_counter()
            report = log.call("sync", mirror.sync)
            sync_ms = (time.perf_counter() - sync_start) * 1000.0
            wal_after = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
            same_generation = report.generation == generation_before and not report.full_sync
            reports.append((sync_ms, report, wal_after - wal_before if same_generation else 0))
            log.cycles.append((time.perf_counter() - cycle_start) * 1000.0)
    except PhaseAborted:
        pass
    end = time.perf_counter()
    log.calls.extend(call for call in source.calls if call[1] >= start)
    phase = Phase(log, (start, end), acked, stats_before=before)
    phase.stats_after = writer.stats()
    phase.sync_reports = reports
    phase.extra = {
        "bootstrap_seconds": bootstrap_seconds,
        "bootstrap_bytes": float(bootstrap.fetched_bytes),
    }
    return phase, mirror_path, mirror


def gate_write_follow(
    writer: ServiceClient,
    model: UpdateModel,
    store_path: str,
    mirror_path: str,
    mirror: StoreMirror,
    log: OpLog,
) -> None:
    """Oracle check on the writer, then byte identity of writer store and mirror."""
    gate_model(writer, model, (2,), log)
    problems: List[str] = ["never compared"]
    for _ in range(5):  # a background compaction may land between sync and diff
        writer.flush()
        token = writer.state_token()
        mirror.sync()
        problems = diff_stores(store_path, mirror_path)
        if not problems and writer.state_token() == token:
            break
        time.sleep(0.2)
    log.check("sync", not problems, f"mirror not byte-identical: {problems[:3]}")


# --------------------------------------------------------------------- #
# cold_build
# --------------------------------------------------------------------- #
@dataclass
class ColdCycle:
    pipeline: Dict[str, object]
    build: Dict[str, object]
    open_seconds: float


def cold_setup(
    topo: Topology, scale: float, seed: int, repeats: int
) -> Tuple[Hypergraph, str, List[float]]:
    """Set-up of ``cold_build`` is dataset generation; the dataset is saved
    once (untimed) so that each cycle's fresh child loads it instead."""
    gens: List[float] = []
    for _ in range(repeats):
        h, gen_s = generate(scale, seed)
        gens.append(gen_s)
    npz_path = topo.path("dataset") + ".npz"
    save_hypergraph_npz(h, npz_path)
    return h, npz_path, gens


def phase_cold_build(
    topo: Topology, npz_path: str, seconds: float, traced: bool = False
) -> Tuple[Phase, List[ColdCycle], Optional[str]]:
    """Cycles of [fresh child: pipeline, index build] + [serve restart]."""
    log = OpLog()
    cycles: List[ColdCycle] = []
    spans_path: Optional[str] = None
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while time.perf_counter() < deadline:
            store_path = topo.path("cold-store")
            log.attempted += 2
            try:
                child = topo.spawn_cold_child(npz_path, store_path)
                pipeline = child.expect("pipeline", timeout=spec.OP_TIMEOUT_S * 2)
                build = child.expect("build", timeout=spec.OP_TIMEOUT_S * 2)
                child.wait_exit(timeout=spec.OP_TIMEOUT_S)
                topo.stop(child)
            except AssertionError as exc:  # ScenarioError: child died or stalled
                log.wrong("pipeline", str(exc))
                raise PhaseAborted("pipeline") from exc
            log.samples.setdefault("pipeline", []).append(float(pipeline["seconds"]) * 1000.0)
            log.samples.setdefault("build", []).append(float(build["seconds"]) * 1000.0)
            log.attempted += 1
            try:
                server, client, open_s, count = open_server(topo, store_path, traced=traced)
            except (AssertionError, TransportError, OSError) as exc:
                log.wrong("open", f"{type(exc).__name__}: {exc}")
                raise PhaseAborted("open") from exc
            log.samples.setdefault("open", []).append(open_s * 1000.0)
            log.check(
                "open",
                count == int(pipeline["components"]),
                f"served {count} components, pipeline found {pipeline['components']}",
            )
            client.close()
            topo.stop(server.process)
            spans_path = server.spans_path or spans_path
            cycles.append(ColdCycle(pipeline, build, open_s))
            log.cycles.append(
                (float(pipeline["seconds"]) + float(build["seconds"]) + open_s) * 1000.0
            )
    except PhaseAborted:
        pass
    end = time.perf_counter()
    return Phase(log, (start, end)), cycles, spans_path


def gate_cold_build(
    h: Hypergraph, cycles: List[ColdCycle], served_scale: float, seed: int, log: OpLog
) -> None:
    """hashmap == vectorized on the cold dataset; plus spgemm on the served one."""
    from cold_child import pipeline_step

    if not cycles:
        log.wrong("pipeline", "no cycle completed")
        return
    first = cycles[0].pipeline
    answer = (first["digest"], first["components"])
    for cycle in cycles:
        same = (cycle.pipeline["digest"], cycle.pipeline["components"]) == answer
        log.check("pipeline", same, "hashmap runs of one seed disagree")
    vectorized = pipeline_step(h, "vectorized")
    log.check(
        "pipeline",
        (vectorized["digest"], vectorized["components"]) == answer,
        "vectorized and hashmap disagree on edge set or component count",
    )
    small, _ = generate(served_scale, seed)
    answers = {
        algorithm: pipeline_step(small, algorithm)
        for algorithm in ("hashmap", "vectorized", "spgemm")
    }
    digests = {(a["digest"], a["components"]) for a in answers.values()}
    log.check(
        "pipeline", len(digests) == 1, "hashmap/vectorized/spgemm disagree on the served dataset"
    )

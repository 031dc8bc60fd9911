"""The chaos scenario suite behind ``repro chaos --scenario NAME``.

Each scenario stands up a real serving topology (subprocesses over the
socket protocol — see :mod:`repro.chaos.harness`), injects faults via the
failpoint subsystem, and scores the orthogonal correctness axes:

``partition_replica``
    An ``error`` failpoint at ``repl.manifest`` on the writer severs the
    replication plane while the stats/query plane stays up: the
    replica's lag gauges must rise, ``/readyz`` must flip to 503
    (``last sync failed``) while stale reads keep serving, and after the
    heal the gauges must return to zero, the probe to 200, and the
    mirror directory to byte-identical.
``restart_everything``
    SIGKILL/restart the writer in a loop under a long-lived replica:
    every cycle must reconverge, and the surviving replica must not leak
    (open fds and RSS bounded across cycles — the process runtime
    gauges are the measurement).

Both need real processes.  Crash recovery at each store, engine and
mirror failpoint is checked in-process by the state machine in
``tests/chaos/test_crash_model.py``.

Results aggregate into per-axis artifacts (``AXES_correctness.json``,
``AXES_durability.json``, ``AXES_freshness.json``) whose schema
``benchmarks/check_axes.py`` gates in CI; artifacts merge across runs so
axes can be produced one scenario at a time.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.failpoints import REPL_MANIFEST
from repro.chaos.harness import (
    ChaosHarness,
    LagSampler,
    ScenarioError,
    diff_stores,
    metric_value,
    percentile,
    probe,
    scrape_metrics,
    wait_until,
)

__all__ = [
    "SCENARIOS", "ScenarioResult", "UnknownScenarioError", "run_scenarios", "write_axes",
]

#: Freshness SLO: seconds a node may take to answer ``/readyz`` 200 after
#: a restart or heal (generous for shared CI runners; a regression that
#: matters — a replica stuck resyncing from scratch — blows way past it).
TIME_TO_READY_SLO_S = 30.0
#: Freshness SLO: p95 generation lag across post-heal/converged samples.
P95_GENERATION_LAG_SLO = 2.0
#: Leak bounds for the long-lived replica in ``restart_everything``.
FD_GROWTH_LIMIT = 20.0
RSS_GROWTH_LIMIT_BYTES = 96 * 1024 * 1024


class UnknownScenarioError(ValueError):
    """A requested scenario name is not in :data:`SCENARIOS`."""


@dataclass
class ScenarioResult:
    """One scenario's verdicts, sliced by correctness axis."""

    name: str
    failures: List[str] = field(default_factory=list)
    correctness: Dict[str, object] = field(default_factory=dict)
    durability: Optional[Dict[str, object]] = None
    freshness: Optional[Dict[str, object]] = None
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, object]:
        return {
            "scenario": self.name,
            "pass": self.passed,
            "duration_s": round(self.duration_s, 3),
            "failures": list(self.failures),
            "correctness": self.correctness,
            "durability": self.durability,
            "freshness": self.freshness,
        }


def _axis_pass(result: ScenarioResult, axis: str, data: Dict[str, object]) -> bool:
    """An axis entry fails only on ITS OWN failures — orthogonality."""
    prefixes = {
        "correctness": ("correctness", "observability"),
        "durability": ("durability",),
        "freshness": ("freshness",),
    }[axis]
    tainted = any(f.startswith(prefixes) for f in result.failures)
    return not tainted


# --------------------------------------------------------------------- #
# Scenario bodies
# --------------------------------------------------------------------- #
def scenario_partition_replica(h: ChaosHarness, quick: bool) -> ScenarioResult:
    result = ScenarioResult(name="partition_replica")
    updates = 6 if quick else 18
    writer, w_address, w_url = h.start_writer()
    w_client = h.client(w_address)
    h.submit_updates(w_client, updates)

    replica, r_address, r_url = h.start_replica(w_address)
    r_client = h.client(r_address)
    h.await_converged(w_client, r_client)
    h.check_oracle(r_client, "replica-baseline")

    sampler = LagSampler(r_url)
    sampler.start()
    queries = h.start_query_traffic(r_address)

    # Partition the replication plane: every repl_manifest answer from
    # the writer now fails, while its stats/query plane keeps serving —
    # so the replica still *learns* how far behind it is (lag gauges
    # rise) but cannot close the gap.
    partition_at = time.monotonic()
    h.chaos(w_client, "activate", point=REPL_MANIFEST.name, action="error")
    h.submit_updates(w_client, updates)
    # compact() resets the writer's token to (generation + 1, 0 WAL bytes),
    # so the wal-lag gauge can only read > 0 between the first acked update
    # and the compaction: hold the compaction until a sample has seen it.
    wait_until(
        lambda: any(s[2] > 0.0 for s in sampler.window(partition_at)),
        description="wal-lag gauge > 0 during partition",
    )
    w_client.compact()  # bumps the writer generation: generation lag >= 1
    h.await_unready(r_url)
    status, payload = probe(r_url, "/readyz")
    h.check(
        status == 503 and payload.get("reason") == "last sync failed",
        f"observability[partition]: /readyz ({status}, "
        f"{payload.get('reason')!r}) != (503, 'last sync failed')",
    )
    # Stale reads must keep flowing on the partitioned replica.
    stale = r_client.metric(1, "connected_components")
    h.check(bool(stale), "correctness[partition]: stale read returned nothing")
    wait_until(
        lambda: any(s[1] >= 1.0 for s in sampler.window(partition_at)),
        description="generation-lag gauge >= 1 during partition",
    )

    # Heal, reconverge, and require full observability recovery.
    heal_at = time.monotonic()
    h.chaos(w_client, "deactivate", point=REPL_MANIFEST.name)
    time_to_ready = h.await_ready(r_url)
    h.await_converged(w_client, r_client)
    queries.stop()
    h.check(queries.ok > 0, "correctness[partition]: no replica queries succeeded")
    divergences = h.check_oracle(r_client, "replica-healed")
    divergences += h.check_oracle(w_client, "writer-healed")
    wait_until(
        lambda: sampler.samples and sampler.samples[-1][1] == 0.0
        and sampler.samples[-1][2] == 0.0,
        description="lag gauges back to zero after heal",
    )
    sampler.stop()

    partition_window = sampler.window(partition_at, heal_at)
    h.check(
        any(s[2] > 0.0 for s in partition_window),
        "observability[partition]: wal-lag gauge never rose during partition",
    )
    healed_window = sampler.window(heal_at)
    p95_lag = percentile([s[1] for s in healed_window], 0.95)
    if p95_lag > P95_GENERATION_LAG_SLO:
        result.failures.append(
            f"freshness: post-heal p95 generation lag {p95_lag} "
            f"(SLO {P95_GENERATION_LAG_SLO})"
        )
    if time_to_ready > TIME_TO_READY_SLO_S:
        result.failures.append(
            f"freshness: replica took {time_to_ready:.1f}s to re-ready "
            f"(SLO {TIME_TO_READY_SLO_S:.0f}s)"
        )

    # The injected faults must be observable on the writer's /metrics.
    scraped = scrape_metrics(w_url + "/metrics")
    fired = metric_value(
        scraped, "chaos_failpoint_hits_total", {"point": REPL_MANIFEST.name}
    )
    h.check(
        fired is not None and fired >= 1.0,
        "observability[partition]: chaos_failpoint_hits_total{point=repl.manifest} "
        f"= {fired}, expected >= 1",
    )
    h.check_slow_traces_kept(w_client, "partition")

    # Mirror must be byte-identical once converged and traffic stopped.
    problems = diff_stores(h.store_path, h.mirror_path)
    h.check(
        not problems,
        "correctness[partition]: mirror differs from writer store: "
        + "; ".join(problems[:5]),
    )
    r_client.close()
    w_client.close()

    result.failures.extend(h.failures)
    result.correctness = {
        "oracle_queries": 3 * 3,
        "divergences": divergences,
        "stale_reads_served": queries.ok,
        "mirror_byte_identical": not problems,
        "pass": _axis_pass(result, "correctness", {}),
    }
    result.freshness = {
        "time_to_ready_s": round(time_to_ready, 3),
        "slo_s": TIME_TO_READY_SLO_S,
        "p95_generation_lag": p95_lag,
        "p95_generation_lag_slo": P95_GENERATION_LAG_SLO,
        "lag_samples": len(sampler.samples),
        "pass": _axis_pass(result, "freshness", {}),
    }
    return result


def scenario_restart_everything(h: ChaosHarness, quick: bool) -> ScenarioResult:
    result = ScenarioResult(name="restart_everything")
    cycles = 2 if quick else 3
    updates = 5 if quick else 12
    writer, w_address, w_url = h.start_writer()
    port = w_address[1]
    w_client = h.client(w_address)
    h.submit_updates(w_client, updates)
    replica, r_address, r_url = h.start_replica(w_address)
    r_client = h.client(r_address)
    h.await_converged(w_client, r_client)

    def replica_resources() -> Tuple[float, float]:
        scraped = scrape_metrics(r_url + "/metrics")
        return (
            metric_value(scraped, "process_open_fds") or -1.0,
            metric_value(scraped, "process_resident_memory_bytes") or -1.0,
        )

    fds_before, rss_before = replica_resources()
    ready_times: List[float] = []
    for cycle in range(cycles):
        h.submit_updates(w_client, updates)
        h.await_converged(w_client, r_client)
        h.check_oracle(r_client, f"cycle-{cycle}-pre-kill")

        writer.kill()  # SIGKILL: no drain, no cleanup — the hard case
        writer.wait_exit()
        h.await_unready(r_url)

        restart_at = time.monotonic()
        writer, w_address, w_url = h.start_writer(port=port)
        ready_times.append(time.monotonic() - restart_at + h.await_ready(w_url))
        w_client.close()
        w_client = h.client(w_address)
        h.resolve_indeterminate(w_client)
        ready_times.append(h.await_ready(r_url))
        h.await_converged(w_client, r_client)

    divergences = h.check_oracle(r_client, "final-replica")
    divergences += h.check_oracle(w_client, "final-writer")
    problems = diff_stores(h.store_path, h.mirror_path)
    h.check(
        not problems,
        "correctness[restart]: mirror differs after restart cycles: "
        + "; ".join(problems[:5]),
    )

    # The long-lived replica must not leak across its peer's crash loop.
    fds_after, rss_after = replica_resources()
    if fds_before > 0 and fds_after > 0:
        h.check(
            fds_after - fds_before <= FD_GROWTH_LIMIT,
            f"observability[restart]: replica leaked fds "
            f"({fds_before:.0f} -> {fds_after:.0f})",
        )
    if rss_before > 0 and rss_after > 0:
        h.check(
            rss_after - rss_before <= RSS_GROWTH_LIMIT_BYTES,
            f"observability[restart]: replica RSS grew "
            f"{rss_after - rss_before:.0f} bytes across {cycles} cycles",
        )
    r_client.close()
    w_client.close()

    result.failures.extend(h.failures)
    worst_ready = max(ready_times) if ready_times else 0.0
    result.correctness = {
        "oracle_queries": 3 * (cycles + 2),
        "divergences": divergences,
        "mirror_byte_identical": not problems,
        "pass": _axis_pass(result, "correctness", {}),
    }
    result.durability = {
        "acked_updates": len(h.ledger.acked),
        "restart_cycles": cycles,
        "acked_lost": 0 if _axis_pass(result, "durability", {}) else 1,
        "pass": _axis_pass(result, "durability", {}),
    }
    if worst_ready > TIME_TO_READY_SLO_S:
        result.failures.append(
            f"freshness: worst time-to-ready {worst_ready:.1f}s "
            f"(SLO {TIME_TO_READY_SLO_S:.0f}s)"
        )
    result.freshness = {
        "time_to_ready_s": round(worst_ready, 3),
        "slo_s": TIME_TO_READY_SLO_S,
        "replica_fd_growth": fds_after - fds_before,
        "replica_rss_growth_bytes": rss_after - rss_before,
        "pass": _axis_pass(result, "freshness", {}),
    }
    return result


SCENARIOS: Dict[str, Callable[[ChaosHarness, bool], ScenarioResult]] = {
    "partition_replica": scenario_partition_replica,
    "restart_everything": scenario_restart_everything,
}


# --------------------------------------------------------------------- #
# Runner + per-axis artifacts
# --------------------------------------------------------------------- #
def run_scenarios(
    names: List[str],
    quick: bool = False,
    results_dir: Optional[str] = None,
    emit: Callable[[Dict[str, object]], None] = lambda payload: print(
        json.dumps(payload)
    ),
) -> List[ScenarioResult]:
    """Run ``names`` in order, each in a fresh world; write axis artifacts."""
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise UnknownScenarioError(f"unknown scenario(s) {unknown} (known: {known})")
    results: List[ScenarioResult] = []
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"chaos-{name}-") as root:
            harness = ChaosHarness(root)
            started = time.monotonic()
            try:
                result = SCENARIOS[name](harness, quick)
            except ScenarioError as exc:
                result = ScenarioResult(name=name)
                result.failures.extend(harness.failures)
                result.failures.append(f"correctness: scenario aborted: {exc}")
            finally:
                harness.teardown()
            result.duration_s = time.monotonic() - started
            results.append(result)
            emit(result.to_json())
    if results_dir:
        write_axes(results, results_dir)
    return results


def write_axes(results: List[ScenarioResult], results_dir: str) -> List[str]:
    """Merge results into ``AXES_<axis>.json`` artifacts for the CI gate.

    Artifacts merge per scenario: running one scenario updates only its
    own entry, so axes can be assembled across several invocations.
    Entries of names no longer in :data:`SCENARIOS` are dropped, so a
    reused directory never reports a deleted scenario.
    """
    os.makedirs(results_dir, exist_ok=True)
    written: List[str] = []
    for axis in ("correctness", "durability", "freshness"):
        entries: Dict[str, Dict[str, object]] = {}
        path = os.path.join(results_dir, f"AXES_{axis}.json")
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entries = dict(json.load(handle).get("scenarios", {}))
            except (OSError, json.JSONDecodeError, AttributeError):
                entries = {}
            entries = {n: e for n, e in entries.items() if n in SCENARIOS}
        for result in results:
            data = getattr(result, axis)
            if axis == "correctness":
                data = dict(data or {})
                data["failures"] = [
                    f
                    for f in result.failures
                    if f.startswith(("correctness", "observability"))
                ]
            if data is not None:
                entries[result.name] = data
        payload = {
            "axis": axis,
            "pass": all(bool(e.get("pass")) for e in entries.values()),
            "scenarios": entries,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written

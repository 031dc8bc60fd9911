"""The repo benchmark: four workloads against the real serving topology.

One command runs everything, checks every answer and prints every metric
by name with its unit and sample count::

    python3 benchmarks/e2e/run.py                       # 4 workloads, both passes
    python3 benchmarks/e2e/run.py --smoke               # wiring check, ~30 s
    python3 benchmarks/e2e/run.py --workload read_hot --seed 3 --seconds 12 --trace 0

The last form is what the driver calls (``BENCHMARK.json``): its final
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  ``--runs N`` repeats each workload with
seeds ``seed .. seed+N-1`` and prints medians and spreads; ``--out FILE``
saves every run with numerators, denominators and sample counts (this is
how ``results/baseline*.json`` were made and what ``compare.py`` reads).

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` spends half of ``--seconds`` on the same workload
untraced (client-observed latencies, counters from the ``stats`` op) and
half against a server started through ``traced_serve.py`` (the per-layer
self-time table), plus the in-process layer probe of ``e2e_layers.py``.
End-to-end numbers are never taken from a traced server.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import e2e_spec as spec  # noqa: E402
import e2e_stats as stats  # noqa: E402

RESULTS_DIR = os.path.join(HERE, "results")
SMOKE_SECONDS = 1.0


def _metric(value: float, unit: str, n: int) -> Dict[str, object]:
    return {"value": float(value), "unit": unit, "n": int(n)}


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
class Run:
    """Everything one (workload, seed, trace) run measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.served_scale, self.cold_scale = (
            spec.SMOKE_SCALES if smoke else (spec.SERVED_SCALE, spec.COLD_SCALE)
        )
        self.values: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.details: Dict[str, object] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = float(value)
        self.counts[name] = int(n)

    def absorb(self, log) -> None:
        self.attempted += log.attempted
        self.failed += log.failed
        self.problems.extend(log.problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Exactly the metrics of this pass, in ``BENCHMARK.json`` order."""
        declared = spec.PER_LAYER if self.trace else spec.END_TO_END
        return {
            m.name: _metric(self.values.get(m.name, 0.0), m.unit, self.counts.get(m.name, 0))
            for m in declared
        }

    def document(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "smoke": self.smoke,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(),
            "details": self.details,
            "problems": self.problems,
        }


def _end_to_end(run: Run, phase, setup_seconds: Sequence[float], peak_rss: float) -> None:
    log = phase.log
    run.put("setup_s", stats.median(setup_seconds), len(setup_seconds))
    run.put("throughput_ops_s", phase.ok_ops / phase.wall_seconds, phase.ok_ops)
    run.put("cycle_p50_ms", stats.median(log.cycles), len(log.cycles))
    run.put("peak_rss_mb", peak_rss, 1)
    run.details["phase"] = {
        "ok_ops": phase.ok_ops,
        "wall_seconds": phase.wall_seconds,
        "ops": {op: stats.summarize(values) for op, values in log.samples.items()},
        "cycles": stats.summarize(log.cycles),
    }


def _counter(snapshot: Dict[str, object], name: str) -> float:
    """Sum of one registry counter in a ``stats`` payload's metrics snapshot."""
    family = snapshot.get("metrics", {}).get(name, {})
    return float(sum(child.get("value", 0.0) for child in family.get("values", ())))


def _client_side(run: Run, phase) -> None:
    """Client-observed latencies and ``stats``-op counter deltas of one phase."""
    samples = phase.log.samples
    for op in ("metric", "sweep", "ack"):
        values = samples.get(op, [])
        run.put(f"client.{op}_p50_ms", stats.median(values), len(values))
        run.put(f"client.{op}_p95_ms", stats.tail_or_zero(values, 95.0), len(values))
        run.put(f"transport.{op}_p99_ms", stats.tail_or_zero(values, 99.0), len(values))
    components = samples.get("components", [])
    run.put(
        "transport.components_p99_ms", stats.tail_or_zero(components, 99.0), len(components)
    )
    batches = samples.get("batch", [])
    run.put("client.batch_p50_ms", stats.median(batches), len(batches))
    cycles = phase.log.cycles
    run.put("client.cycle_p95_ms", stats.tail_or_zero(cycles, 95.0), len(cycles))
    deltas = [
        ms for ms, report, _ in phase.sync_reports if report.changed and not report.full_sync
    ]
    run.put("client.sync_delta_p50_ms", stats.median(deltas), len(deltas))
    rate = stats.Ratio(phase.updates_acked, phase.update_seconds)
    run.put("client.acked_updates_per_s", rate.value, phase.updates_acked)
    run.details["acked_updates"] = vars(rate)

    before, after = phase.stats_before, phase.stats_after
    if not after:
        return

    def engine(key: str) -> float:
        return float(after["engine"][key]) - float(before["engine"][key])

    hit = stats.Ratio(engine("cache_hits"), engine("cache_hits") + engine("cache_misses"))
    kept = stats.Ratio(
        engine("retained_entries"), engine("retained_entries") + engine("invalidated_entries")
    )
    run.put("engine.cache_hit_ratio", hit.value, int(hit.denominator))
    run.put("engine.cache_retained_ratio", kept.value, int(kept.denominator))
    admitted = {
        key: float(after["admission"][key]) - float(before["admission"][key])
        for key in ("applied", "batches")
    }
    batch = stats.Ratio(admitted["applied"], admitted["batches"])
    run.put("service.mean_batch_size", batch.value, int(batch.denominator))
    run.put("service.largest_batch", float(after["admission"]["largest_batch"]))
    compactions = float(after.get("compactions", 0)) - float(before.get("compactions", 0))
    run.put("store.compactions", compactions)
    fsyncs = stats.Ratio(
        _counter(after, "repro_wal_fsyncs_total") - _counter(before, "repro_wal_fsyncs_total"),
        phase.updates_acked,
    )
    run.put("store.fsyncs_per_update", fsyncs.value, phase.updates_acked)
    run.details["ratios"] = {
        "engine.cache_hit_ratio": vars(hit),
        "engine.cache_retained_ratio": vars(kept),
        "service.mean_batch_size": vars(batch),
        "store.fsyncs_per_update": vars(fsyncs),
    }


def _wire_probes(run: Run, topo, server) -> None:
    """Cache-hit round trips on the now idle server: the wire's floor,
    transport's share of a ``metric`` reply, the client's decode cost, the
    v1 JSON plane, and what a second concurrent connection adds."""
    from e2e_workloads import CC, OpLog, second_connection_ratio, warm_read_hot

    count = 20 if run.smoke else 100
    log = OpLog()
    client = topo.client(server)
    for s in spec.HOT_S_VALUES:  # refill what the workload's updates invalidated
        client.metric(s, CC)
    for _ in range(2 * count):
        log.call("components", client.components, spec.HOT_S_VALUES[-1])
    legacy = topo.client(server, protocol_max=1)
    for i in range(count):
        s = spec.HOT_S_VALUES[i % len(spec.HOT_S_VALUES)]
        log.call("metric", client.metric, s, CC)
        log.call("call", client.call, {"op": "metric", "s": s, "metric": CC, "columns": True})
        log.call("v1_metric", legacy.metric, s, CC)
    legacy.close()
    burst_seconds = 0.3 if run.smoke else 1.0
    concurrency, burst_log = second_connection_ratio(
        topo, server, client, warm_read_hot(client), burst_seconds
    )
    client.close()
    run.put("service.conn2_throughput_ratio", concurrency.value, burst_log.attempted)
    run.details["second_connection"] = vars(concurrency)
    run.absorb(burst_log)
    medians = {op: stats.median(values) for op, values in log.samples.items()}
    run.put("transport.rtt_floor_ms", medians["components"], 2 * count)
    run.put(
        "transport.self_metric_ms",
        medians["metric"] - run.values["service.execute_metric_ms"],
        count,
    )
    run.put("transport.client_decode_ms", medians["metric"] - medians["call"], count)
    run.put("transport.v1_metric_p50_ms", medians["v1_metric"], count)
    run.absorb(log)


def _layer_probe(
    run: Run, topo, cache: Dict[int, tuple], h=None, dataset_seconds: float = 0.0
) -> None:
    """The in-process layer probe; measured once per seed and invocation.

    It is the same on every workload (scale-2 inputs of the run's seed), so
    a multi-workload invocation reuses the first run's numbers.  ``h`` and
    ``dataset_seconds`` are the caller's already generated scale-2 dataset.
    """
    from e2e_layers import run_layer_probe
    from e2e_topology import generate

    if run.seed not in cache:
        if h is None:
            h, dataset_seconds = generate(run.served_scale, run.seed)
        values, counts = run_layer_probe(topo, h, run.seed, reps=2 if run.smoke else 5)
        values["generators.dataset_s"], counts["generators.dataset_s"] = dataset_seconds, 1
        cache[run.seed] = (values, counts)
    values, counts = cache[run.seed]
    for name, value in values.items():
        run.put(name, value, counts[name])


def _traced_table(run: Run, by_layer: Dict[str, float], request_seconds: float) -> None:
    for layer in spec.TRACED_LAYERS:
        run.put(f"{layer}.self_s", by_layer.get(layer, 0.0))
    for layer, share in stats.shares(
        {layer: by_layer.get(layer, 0.0) for layer in spec.TRACED_LAYERS}, request_seconds
    ).items():
        run.put(f"{layer}.self_share", share)
    run.put("obs.request_s", request_seconds)
    unknown = sorted(set(by_layer) - set(spec.TRACED_LAYERS))
    if unknown:
        run.problems.append(f"spans of undeclared layers: {unknown}")
        run.failed += 1


def _write_trace(run: Run, server_spans, calls, window) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"trace_{run.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": run.workload,
                "seed": run.seed,
                "window": list(window),
                "span_fields": ["id", "name", "start", "end", "parent", "request", "thread"],
                "server_spans": [list(span) for span in server_spans],
                "harness_calls": [list(call) for call in calls],
            },
            handle,
        )
    run.details["trace_file"] = os.path.relpath(path, os.path.dirname(os.path.dirname(HERE)))


def _served_trace(run: Run, topo, server, phase, untraced_phase) -> None:
    """Stop the traced server, read its spans, fill the per-layer table."""
    import e2e_spans as spans
    from traced_serve import ADMISSION_WAIT, REQUEST_ROOT

    topo.stop(server.process)
    recorded = spans.adopt_orphans(spans.load_spans(server.spans_path), ADMISSION_WAIT)
    calls = phase.log.calls
    by_layer, server_seconds = spans.layer_self_seconds(recorded, phase.window, REQUEST_ROOT)
    by_layer, request_seconds = spans.add_client_side(by_layer, server_seconds, calls)
    _traced_table(run, by_layer, request_seconds)
    in_window = [s for s in recorded if phase.window[0] <= s.start <= phase.window[1]]
    waits = spans.exclusive_ms(in_window, ADMISSION_WAIT)
    run.put("service.admission_wait_ms", stats.median(waits), len(waits))
    locks = [s.duration * 1000.0 for s in in_window if s.name.startswith("service.rwlock_")]
    run.put("service.rwlock_wait_ms", stats.median(locks), len(locks))
    overhead = stats.Ratio(
        phase.ok_ops / phase.wall_seconds, untraced_phase.ok_ops / untraced_phase.wall_seconds
    )
    run.put("obs.trace_overhead_ratio", overhead.value)
    run.details["trace_overhead"] = vars(overhead)
    run.details["layer_seconds"] = {"self": by_layer, "request": request_seconds}
    _write_trace(run, recorded, calls, phase.window)


def run_served(run: Run, topo, probe_cache: Dict[int, tuple]) -> None:
    """``read_hot`` / ``churn_query`` / ``write_follow``."""
    import e2e_workloads as wl
    from e2e_topology import UpdateModel, copy_store

    extra_args = spec.FOLLOW_SERVER_FLAGS if run.workload == "write_follow" else ()
    repeats = 1 if (run.smoke or run.trace) else spec.SETUP_REPEATS
    setup = wl.served_setup(
        topo, run.served_scale, run.seed, repeats, extra_args, keep_pristine=bool(run.trace)
    )
    seconds = run.seconds / 2 if run.trace else run.seconds

    def measure(server, client):
        """Run the measured phase; returns it with its full and its light gate.

        The light gate (served state equals the harness model) is what the
        traced sub-pass runs: its answers were checked in the loop, and the
        oracle already judged the same code on the untraced sub-pass.
        """
        model = UpdateModel(setup.h, run.seed)
        if run.workload == "read_hot":
            phase, reference = wl.phase_read_hot(client, seconds)
            per_s = len(phase.log.samples.get("metric", ())) // len(spec.HOT_S_VALUES)
            return (
                phase,
                lambda log: wl.gate_read_hot(client, setup.h, reference, per_s, log),
                lambda log: wl.gate_model(client, model, (), log),
            )
        if run.workload == "churn_query":
            phase = wl.phase_churn_query(client, model, seconds)
            return (
                phase,
                lambda log: wl.gate_model(client, model, spec.CHURN_S_VALUES, log),
                lambda log: wl.gate_model(client, model, (), log),
            )
        phase, mirror_path, mirror = wl.phase_write_follow(
            topo, server, client, model, seconds
        )
        run.details.setdefault("bootstrap", phase.extra)
        return (
            phase,
            lambda log: wl.gate_write_follow(
                client, model, server.store_path, mirror_path, mirror, log
            ),
            lambda log: wl.gate_model(client, model, (), log),
        )

    if run.trace:
        _layer_probe(run, topo, probe_cache, setup.h, stats.median(setup.dataset_seconds))
        run.put("store.index_build_s", stats.median(setup.build_seconds), repeats)
        run.put("cli.warm_open_s", stats.median(setup.open_seconds), repeats)

    phase, gate, _ = measure(setup.server, setup.client)
    gate_log = wl.OpLog()
    gate(gate_log)
    run.absorb(phase.log)
    run.absorb(gate_log)
    if not run.trace:
        _end_to_end(run, phase, setup.setup_seconds, setup.server.peak_rss_mb())
        return

    _client_side(run, phase)
    _wire_probes(run, topo, setup.server)
    setup.client.close()
    topo.stop(setup.server.process)

    traced_store = copy_store(setup.pristine_path, topo.path("traced-store"))
    server, client, _, _ = wl.open_server(topo, traced_store, extra_args, traced=True)
    traced_phase, _, light_gate = measure(server, client)
    gate_log = wl.OpLog()
    light_gate(gate_log)
    client.close()
    _served_trace(run, topo, server, traced_phase, phase)
    run.absorb(traced_phase.log)
    run.absorb(gate_log)


def run_cold_build(run: Run, topo, probe_cache: Dict[int, tuple]) -> None:
    """``cold_build``: no server in the measured loop except the restart."""
    import e2e_spans as spans
    import e2e_workloads as wl
    from traced_serve import REQUEST_ROOT

    repeats = 1 if (run.smoke or run.trace) else spec.SETUP_REPEATS
    h, npz_path, dataset_seconds = wl.cold_setup(topo, run.cold_scale, run.seed, repeats)
    seconds = run.seconds / 2 if run.trace else run.seconds
    phase, cycles, _ = wl.phase_cold_build(topo, npz_path, seconds)
    gate_log = wl.OpLog()
    wl.gate_cold_build(h, cycles, run.served_scale, run.seed, gate_log)
    run.absorb(phase.log)
    run.absorb(gate_log)
    if not run.trace:
        peak = max((float(c.build["peak_rss_mb"]) for c in cycles), default=0.0)
        _end_to_end(run, phase, dataset_seconds, peak)
        run.details["cycles"] = [
            {"pipeline": c.pipeline, "build": c.build, "open_seconds": c.open_seconds}
            for c in cycles
        ]
        return

    _layer_probe(run, topo, probe_cache)
    _client_side(run, phase)

    traced_phase, traced_cycles, spans_path = wl.phase_cold_build(
        topo, npz_path, seconds, traced=True
    )
    run.absorb(traced_phase.log)
    every = cycles + traced_cycles
    for name, values in (
        ("core.pipeline_s", [c.pipeline["seconds"] for c in every]),
        ("store.index_build_s", [c.build["seconds"] for c in every]),
        ("cli.warm_open_s", [c.open_seconds for c in every]),
    ):
        run.put(name, stats.median(values), len(values))
    # Table I is the layer table here: stage times of the traced cycles, plus
    # the serving layers' spans of each restart's first answered request.
    by_layer: Dict[str, float] = {}
    request_seconds = sum(traced_phase.log.cycles) / 1000.0
    for cycle in traced_cycles:
        stages = cycle.pipeline["stage_times"]
        core_stages = ("preprocessing", "s_overlap", "squeeze")
        for layer, seconds_ in (
            ("core", sum(stages.get(stage, 0.0) for stage in core_stages)),
            ("smetrics", stages.get(wl.CC, 0.0)),
            ("engine", cycle.build["index_build_s"]),
            ("store", cycle.build["snapshot_write_s"]),
        ):
            by_layer[layer] = by_layer.get(layer, 0.0) + float(seconds_)
    recorded = spans.load_spans(spans_path) if spans_path else []
    served, _ = spans.layer_self_seconds(recorded, None, REQUEST_ROOT)
    for layer, seconds_ in served.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds_
    by_layer["untraced"] = request_seconds - sum(
        seconds_ for layer, seconds_ in by_layer.items() if layer != "untraced"
    )
    _traced_table(run, by_layer, request_seconds)
    overhead = stats.Ratio(
        traced_phase.ok_ops / traced_phase.wall_seconds, phase.ok_ops / phase.wall_seconds
    )
    run.put("obs.trace_overhead_ratio", overhead.value)
    run.details["layer_seconds"] = {"self": by_layer, "request": request_seconds}
    _write_trace(run, recorded, traced_phase.log.calls, traced_phase.window)


def run_once(run: Run, workdir: Optional[str], probe_cache: Dict[int, tuple]) -> Run:
    """One run in its own work directory; children are reaped on every exit path."""
    from e2e_topology import Topology

    with Topology(workdir) as topo:
        if run.workload == "cold_build":
            run_cold_build(run, topo, probe_cache)
        else:
            run_served(run, topo, probe_cache)
    if run.trace:
        failed = stats.Ratio(run.failed, run.attempted)
        run.put("harness.failed_ops_ratio", failed.value, run.attempted)
    return run


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def print_run(run: Run) -> None:
    label = "SMOKE (small datasets, 1 s phases; never comparable with full runs) "
    if not run.smoke:
        label = ""
    kind = "per-layer" if run.trace else "end-to-end"
    print(
        f"\n== {label}{run.workload} seed={run.seed} seconds={run.seconds:g} "
        f"{kind}: attempted={run.attempted} failed={run.failed} correct={run.correct}"
    )
    for name, metric in run.metrics().items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']:<6} n={metric['n']}")
    for problem in run.problems[:10]:
        print(f"  !! {problem}")


def print_summary(runs: Sequence[Run]) -> None:
    """Median and spread of every metric over the seeds of each workload."""
    groups: Dict[Tuple[str, int], List[Run]] = {}
    for run in runs:
        groups.setdefault((run.workload, run.trace), []).append(run)
    for (workload, trace), members in groups.items():
        if len(members) < 2:
            continue
        declared = spec.PER_LAYER if trace else spec.END_TO_END
        print(
            f"\n== {workload} trace={trace}: {len(members)} seeds, median and (Q3-Q1)/median"
        )
        for metric in declared:
            values = [m.values.get(metric.name, 0.0) for m in members]
            line = f"  {metric.name:<36} {stats.median(values):>16.6f} {metric.unit:<6}"
            line += f" spread={stats.spread(values):.4f}"
            if metric.bound >= 0:
                line += f" bound={metric.bound:g}"
            print(line)


def pin_to_one_cpu() -> int:
    """Confine this process, and so every child it spawns, to one CPU.

    On the 2-vCPU reference VM the guest scheduler puts the server's handler
    thread on the harness's CPU in some runs and on the other one in others;
    a reply that crosses vCPUs pays an inter-processor interrupt through the
    hypervisor.  Same code, ``read_hot``: runs ranged over 24 % unpinned
    (``components`` p50 0.13 or 0.24 ms), 15 % with harness and server on
    different CPUs, 3 % on one CPU.  Every measured path is one closed loop
    over single-threaded code, so nothing it could overlap is lost; a change
    that adds real parallelism needs a benchmark change that lifts this pin.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--runs", type=int, default=1, help="N seeds per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; wiring check only")
    parser.add_argument("--workdir", help="parent of the per-run temp directory")
    parser.add_argument("--out", help="write every run as JSON to this file")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program under test not found: {SRC}/repro is missing", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec.RUN_SECONDS)

    def on_term(signum, frame):
        raise KeyboardInterrupt  # unwind through Topology.__exit__: no orphans

    signal.signal(signal.SIGTERM, on_term)
    pinned_cpu = pin_to_one_cpu()
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs: List[Run] = []
    probe_cache: Dict[int, tuple] = {}
    started = time.perf_counter()
    for workload in workloads:
        for seed in range(args.seed, args.seed + max(1, args.runs)):
            for trace in traces:
                run = Run(workload, seed, seconds, trace, args.smoke)
                runs.append(run_once(run, args.workdir, probe_cache))
                print_run(run)
    print_summary(runs)
    if args.out:
        from e2e_topology import environment_stamp

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "environment": {**environment_stamp(), "pinned_cpu": pinned_cpu},
                    "wall_seconds": time.perf_counter() - started,
                    "runs": [run.document() for run in runs],
                },
                handle,
                indent=1,
            )
    sys.stdout.flush()
    if len(runs) == 1:
        run = runs[0]
        final = {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in run.metrics().items()
            },
        }
    else:
        final = {
            "correct": all(run.correct for run in runs),
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "runs": len(runs),
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

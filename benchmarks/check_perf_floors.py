#!/usr/bin/env python
"""CI gate: fail when a headline performance ratio drops below its floor.

Reads the machine-readable ``benchmarks/results/BENCH_*.json`` artefacts
written by the ``report`` fixture (each at least ``{"name", "speedup",
"floor"}``) and exits non-zero if a *required* headline ratio is below its
floor or its artefact is missing — so a perf-smoke run that silently
skipped a benchmark fails just like a regressed one.  Non-required
artefacts (e.g. the loopback transport bench, which is noisy on loaded CI
runners) are printed with their floor status but never fail the gate.

Usage:  python benchmarks/check_perf_floors.py [--require name ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper-headline ratios the perf-smoke job must always gate on:
#: engine sweep vs per-s pipeline, WAL group commit vs per-record fsync,
#: replication delta sync vs full re-fetch, and the observability layer's
#: cost on the serving hot path
#: — split into two axes with separate floors: metrics instrumentation
#: vs NullRegistry (within ~5% — floor 0.95x; the default disabled
#: tracer rides inside this one) and request tracing at sample rate 1.0
#: vs tracer disabled (within ~25% — floor 0.80x; the worst case, since
#: every request allocates and rings a span tree).
#: (The replication ratio is loopback but byte-dominated — the delta
#: moves a small fraction of the store — so it is stable enough to gate
#: on, unlike the latency-dominated transport *batch* bench.)
#: PR 9 adds the protocol v2 data-plane headline (docs/PROTOCOL.md):
#: binary numpy columns vs the JSON plane on bulk metric/sweep responses
#: (``transport_binary``, floor 2x) — a byte/CPU-dominated ratio, stable
#: enough to gate on.  Its sibling ``replication_cursor`` (cursor polls vs
#: full-log record replay, floor 3x) is gone with the record-replay
#: follower that was its baseline arm; ``benchmarks/e2e``'s
#: ``write_follow`` workload measures the cursor path's absolute cost.
#: ``store_reuse`` (warm store open vs cold rebuild) is written without a
#: floor since the block kernel made its cold arm as cheap as its warm
#: one; the e2e probe measures both arms absolutely.
DEFAULT_REQUIRED = (
    "engine_sweep",
    "service_group_commit",
    "replication",
    "obs_overhead",
    "trace_overhead",
    "transport_binary",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require",
        nargs="*",
        default=list(DEFAULT_REQUIRED),
        help="headline names that must be present (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    required = set(args.require)
    failures = []
    seen = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        name = data.get("name", path.stem)
        speedup = data.get("speedup")
        floor = data.get("floor")
        if speedup is None or floor is None:
            continue  # informational artefact without a gated ratio
        seen[name] = (float(speedup), float(floor))
        below = speedup < floor
        if name in required:
            status = "ok" if not below else "BELOW FLOOR"
        else:
            status = "ok (info)" if not below else "below floor (info only)"
        print(f"{name:30s} {speedup:8.2f}x  (floor {floor:.2f}x)  {status}")
        if below and name in required:
            failures.append(f"{name}: {speedup:.2f}x < floor {floor:.2f}x")

    for name in sorted(required):
        if name not in seen:
            failures.append(f"{name}: required headline artefact missing")

    if failures:
        print("\nperf floors violated:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(required)} required headline ratios at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())

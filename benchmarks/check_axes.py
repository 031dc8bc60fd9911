#!/usr/bin/env python
"""CI gate: fail when an orthogonal correctness axis does not hold.

The chaos suite (``repro chaos --results-dir DIR``) writes one artefact
per axis — ``AXES_correctness.json``, ``AXES_durability.json``,
``AXES_freshness.json`` — each ``{"axis", "pass", "scenarios": {...}}``.
The fourth axis, **throughput**, is synthesised here from the existing
``BENCH_*.json`` headline artefacts (the perf-smoke floors): a chaos run
must not be the thing that measures steady-state speed, but the axis set
is only complete if the floors held too.

Each axis is gated *independently* (``--axis NAME``) so a CI pipeline
can report per-axis verdicts instead of one mushed-together boolean:

* ``correctness`` — served values diverged from the pipeline oracle
  zero times, and every observability invariant held (lag gauges moved,
  probes flipped, slow queries linked to traces);
* ``durability``  — zero acknowledged updates lost across the
  ``restart_everything`` SIGKILL cycles (crash recovery at every store,
  engine and mirror failpoint is the tier-1 state machine in
  ``tests/chaos/test_crash_model.py``, which writes no artefact);
* ``freshness``   — time-to-ready and p95 generation lag within SLO;
* ``throughput``  — every required ``BENCH_*`` ratio at or above floor
  (delegates to ``check_perf_floors.py``).

A missing artefact fails its axis: a chaos job that silently skipped a
scenario must fail exactly like one that found a violation.

Usage:  python benchmarks/check_axes.py [--axis NAME] [--results-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # benchmarks/ is not a package
import check_perf_floors  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

CHAOS_AXES = ("correctness", "durability", "freshness")
AXES = CHAOS_AXES + ("throughput",)


def check_chaos_axis(axis: str, results_dir: Path) -> list:
    """Failures for one chaos-produced axis artefact (empty = pass)."""
    path = results_dir / f"AXES_{axis}.json"
    if not path.is_file():
        return [f"{axis}: artefact {path} missing (chaos suite did not run?)"]
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{axis}: artefact {path} unreadable: {exc}"]
    scenarios = data.get("scenarios") or {}
    if not scenarios:
        return [f"{axis}: artefact {path} holds no scenario entries"]
    failures = []
    for name in sorted(scenarios):
        entry = scenarios[name]
        ok = bool(entry.get("pass"))
        detail = "; ".join(str(f) for f in entry.get("failures", [])[:3])
        print(f"{axis:12s} {name:28s} {'ok' if ok else 'FAIL'}"
              + (f"  ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(f"{axis}: scenario {name} failed"
                            + (f" ({detail})" if detail else ""))
    if not bool(data.get("pass")) and not failures:
        failures.append(f"{axis}: artefact marked failing")
    return failures


def check_throughput(results_dir: Path) -> list:
    """The throughput axis: delegate to the perf-floor gate, and record
    the verdict as an ``AXES_throughput.json`` artefact alongside the
    chaos-produced axes so one directory carries the full axis set."""
    rc = check_perf_floors.main([])
    payload = {
        "axis": "throughput",
        "pass": rc == 0,
        "source": "benchmarks/results/BENCH_*.json via check_perf_floors.py",
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "AXES_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return [] if rc == 0 else ["throughput: a required BENCH floor was violated"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--axis",
        choices=AXES + ("all",),
        default="all",
        help="gate one axis independently (default: all)",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=RESULTS_DIR,
        help="directory holding AXES_*.json artefacts (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    axes = list(AXES) if args.axis == "all" else [args.axis]
    failures = []
    for axis in axes:
        if axis == "throughput":
            failures.extend(check_throughput(args.results_dir))
        else:
            failures.extend(check_chaos_axis(axis, args.results_dir))

    if failures:
        print("\ncorrectness axes violated:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(axes)} axis gate(s) hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

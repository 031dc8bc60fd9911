"""Compare two saved benchmark results, metric by metric, workload by workload.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (parent commit), ``B`` the candidate; both are files
written by ``run.py --out`` (several seeds per workload: ``--runs N``).  For
every (workload, end-to-end metric) one row says how much worse B's median
is than A's, as a share of A's median, against the metric's bound:

``ok``          not worse by more than the bound, and resolvable;
``regressed``   worse by more than the bound;
``unresolved``  within the bound, but one side's own run-to-run spread
                ((Q3 - Q1) / median) is wider than the bound, so "no change"
                cannot be claimed — unless every B run beats every A run.

Per-layer metrics have no bound; ``--layers`` prints their medians and
deltas for diagnosis only.  Exit status is non-zero when any row regressed
or when B's failed-ops ratio (summed failed over summed attempted, per
workload) is higher than A's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import e2e_spec as spec  # noqa: E402
import e2e_stats as stats  # noqa: E402

Samples = Dict[Tuple[str, int], Dict[str, List[float]]]


def load(path: str) -> Tuple[Samples, Dict[str, stats.Ratio]]:
    """``{(workload, trace): {metric: values over runs}}`` and failed-op ratios."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    samples: Samples = {}
    failures: Dict[str, stats.Ratio] = {}
    for run in document["runs"]:
        group = samples.setdefault((run["workload"], int(run["trace"])), {})
        for name, metric in run["metrics"].items():
            group.setdefault(name, []).append(float(metric["value"]))
        ratio = failures.setdefault(run["workload"], stats.Ratio())
        ratio.add(run["failed"], run["attempted"])
    return samples, failures


def compare(a: Samples, b: Samples, layers: bool = False) -> Tuple[List[str], int]:
    """Report rows and the number of regressed end-to-end rows."""
    rows: List[str] = []
    regressed = 0
    for workload in spec.WORKLOADS:
        base, cand = a.get((workload, 0)), b.get((workload, 0))
        if base and cand:
            for metric in spec.END_TO_END:
                ours, theirs = base.get(metric.name, []), cand.get(metric.name, [])
                if not ours or not theirs:
                    continue
                status, delta = stats.verdict(ours, theirs, metric.better, metric.bound)
                regressed += status == "regressed"
                rows.append(
                    f"{workload:<13} {metric.name:<20} {stats.median(ours):>14.4f} -> "
                    f"{stats.median(theirs):>14.4f} {metric.unit:<6} worse by {delta:+8.2%} "
                    f"(bound {metric.bound:.0%}; spread {stats.spread(ours):.2%} / "
                    f"{stats.spread(theirs):.2%}, n={len(ours)}/{len(theirs)})  {status}"
                )
        base, cand = a.get((workload, 1)), b.get((workload, 1))
        if layers and base and cand:
            for metric in spec.PER_LAYER:
                ours, theirs = base.get(metric.name, []), cand.get(metric.name, [])
                if not ours or not theirs:
                    continue
                before, after = stats.median(ours), stats.median(theirs)
                if before or after:
                    delta = stats.worse_by(before, after, metric.better)
                    rows.append(
                        f"{workload:<13} {metric.name:<34} {before:>16.4f} -> "
                        f"{after:>16.4f} {metric.unit:<6} worse by {delta:+8.2%}"
                    )
    return rows, regressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--layers", action="store_true", help="also list per-layer deltas")
    args = parser.parse_args(argv)
    a, a_failures = load(args.baseline)
    b, b_failures = load(args.candidate)
    rows, regressed = compare(a, b, layers=args.layers)
    for row in rows:
        print(row)
    more_failures = [
        workload
        for workload, ratio in b_failures.items()
        if ratio.value > a_failures.get(workload, stats.Ratio()).value
    ]
    for workload in more_failures:
        before = a_failures.get(workload, stats.Ratio()).value
        print(
            f"{workload:<13} failed_ops_ratio {before:.6f} "
            f"-> {b_failures[workload].value:.6f}  regressed"
        )
    print(f"{regressed} regressed, {len(more_failures)} workload(s) with more failed ops")
    return 1 if regressed or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Sample summaries for the benchmark: percentiles, ratios, spread.

Three rules from the choosing-metrics guide live here so that ``run.py``,
``compare.py`` and the unit tests share one implementation:

* a timing is reported as its median plus the *highest percentile that
  still has at least ten samples beyond it* (:func:`supported_tail`);
* a ratio is recomputed from summed numerators and denominators, never
  averaged from per-run ratios (:class:`Ratio`);
* run-to-run spread is the distance between the first and third quartile
  as a share of the median (:func:`spread`), exactly as the driver takes it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Tail percentiles a summary may report, highest first.
TAIL_PERCENTILES: Tuple[float, ...] = (99.9, 99.0, 95.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``samples``; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supports(num_samples: int, q: float) -> bool:
    """Whether percentile ``q`` has at least ten of ``num_samples`` beyond it."""
    beyond_per_mille = round((100.0 - q) * 10.0)  # integer: 99.9 -> 1, 95 -> 50
    return num_samples * beyond_per_mille >= MIN_SAMPLES_BEYOND * 1000


def supported_tail(num_samples: int) -> Optional[float]:
    """Highest percentile with >= 10 samples beyond it (None below p95)."""
    return next((q for q in TAIL_PERCENTILES if supports(num_samples, q)), None)


def tail_or_zero(samples: Sequence[float], q: float) -> float:
    """``percentile(samples, q)`` when the sample supports it, else 0.0."""
    return percentile(samples, q) if supports(len(samples), q) else 0.0


def median(samples: Sequence[float]) -> float:
    """Median, 0.0 when empty (an op the workload never issued)."""
    return float(statistics.median(samples)) if samples else 0.0


@dataclass
class Ratio:
    """A share kept as numerator and denominator so runs can be summed."""

    numerator: float = 0.0
    denominator: float = 0.0

    def add(self, numerator: float, denominator: float) -> "Ratio":
        self.numerator += numerator
        self.denominator += denominator
        return self

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0


def shares(numerators: Dict[str, float], denominator: float) -> Dict[str, float]:
    """Each numerator over one shared denominator (0.0 when it is 0)."""
    return {
        name: (value / denominator if denominator else 0.0)
        for name, value in numerators.items()
    }


def spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median of ``values`` — the driver's steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """Share of ``baseline`` by which ``candidate`` is worse (negative: better)."""
    if not baseline:
        return 0.0 if not candidate else math.inf
    delta = (candidate - baseline) / abs(baseline)
    return delta if better == "lower" else -delta


def verdict(
    baseline: Sequence[float], candidate: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric).

    ``regressed``: the candidate's median is worse than the baseline's by
    more than ``bound``.  ``unresolved``: it is not, but either side's own
    spread is wider than the bound, so "no change" cannot be claimed —
    unless every candidate run reads better than every baseline run.
    """
    delta = worse_by(median(baseline), median(candidate), better)
    if delta > bound:
        return "regressed", delta
    if max(spread(baseline), spread(candidate)) > bound:
        if better == "lower":
            dominates = max(candidate) < min(baseline)
        else:
            dominates = min(candidate) > max(baseline)
        if not dominates:
            return "unresolved", delta
    return "ok", delta


def summarize(samples: List[float]) -> Dict[str, float]:
    """``{n, p50, tail_q, tail}`` with the tail chosen by the sample size."""
    tail_q = supported_tail(len(samples))
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_q": tail_q if tail_q is not None else 0.0,
        "tail": percentile(samples, tail_q) if tail_q is not None else 0.0,
    }

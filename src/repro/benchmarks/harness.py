"""Measurement helpers for the table/figure reproduction benchmarks."""

from __future__ import annotations

import os
import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")


def quick_mode() -> bool:
    """Whether benchmarks run in quick mode (``REPRO_BENCH_QUICK=1``).

    The CI perf-smoke job sets it to trade dataset scale and repetition
    rounds for wall-clock; bench modules derive their scales, rounds *and
    floors* from this one flag so a missed copy cannot run a benchmark at
    full scale against quick-mode floors.
    """
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def time_callable(fn: Callable[[], T], repeats: int = 1) -> Tuple[float, T]:
    """Run ``fn`` ``repeats`` times; return (best wall-clock seconds, last result)."""
    best = float("inf")
    result: T = None  # type: ignore[assignment]
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result

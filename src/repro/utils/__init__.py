"""Utility helpers shared across the :mod:`repro` package.

The utilities are intentionally small and dependency free: deterministic
random-number helpers, wall-clock stage timers used by the pipeline and the
benchmark harness, and input-validation helpers that raise uniform,
actionable error messages.
"""

from repro.utils.timing import StageTimes
from repro.utils.validation import (
    check_positive_int,
    check_s_value,
    check_array_int,
    ValidationError,
)
from repro.utils.rng import make_rng

__all__ = [
    "StageTimes",
    "check_positive_int",
    "check_s_value",
    "check_array_int",
    "ValidationError",
    "make_rng",
]

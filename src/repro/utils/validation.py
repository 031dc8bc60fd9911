"""Input validation helpers with uniform error messages."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when user input fails validation."""


def check_positive_int(value: object, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it.

    Parameters
    ----------
    value:
        The candidate value.  Booleans are rejected (they are ``int``
        subclasses but almost always indicate a bug at call sites).
    name:
        Parameter name used in the error message.
    minimum:
        Inclusive lower bound.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_s_value(s: object) -> int:
    """Validate an ``s`` parameter (overlap threshold); must be an int >= 1."""
    return check_positive_int(s, "s", minimum=1)


def check_s_values(values: Iterable[object]) -> list[int]:
    """Validate a collection of ``s`` values; returns them sorted ascending."""
    out = sorted(check_s_value(s) for s in values)
    if not out:
        raise ValidationError("s values must be a non-empty collection")
    return out


def check_array_int(
    arr: Sequence[int] | np.ndarray, name: str, dtype: object = np.int64
) -> np.ndarray:
    """Coerce ``arr`` to a 1-D integer numpy array of ``dtype``, raising on
    non-integral data.  ``dtype=None`` keeps an integer array's own dtype
    (no copy) and makes anything else int64."""
    out = np.asarray(arr)
    if out.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {out.shape}")
    if (
        out.size
        and not np.issubdtype(out.dtype, np.integer)
        and not np.all(np.equal(np.mod(out, 1), 0))
    ):
        raise ValidationError(f"{name} must contain integers")
    if dtype is None:
        dtype = out.dtype if np.issubdtype(out.dtype, np.integer) else np.int64
    return out.astype(dtype, copy=False)

"""A dependency-free, thread-safe metrics registry.

Three instrument kinds cover the serving stack's telemetry:

``Counter``
    Monotonically increasing totals (requests served, WAL fsyncs, cache
    hits).  By Prometheus convention counter names end in ``_total``.
``Gauge``
    A value that goes up and down (queue depth, in-flight requests,
    replica lag).  A gauge may instead be bound to a *callback* with
    :meth:`Gauge.set_function`, evaluated lazily at collection time.
``Histogram``
    Fixed-bucket distributions (latencies, batch sizes): each observation
    lands in the first bucket whose upper bound contains it, plus a
    running sum and count, so rates and quantile estimates can be derived
    by a scraper without the process keeping raw samples.

Concurrency contract
--------------------
The registry is **lock-striped**: registration (get-or-create of an
instrument) takes the registry lock, but every hot-path mutation —
``inc`` / ``set`` / ``observe`` — takes only the lock of the one
*labelled child* it touches, so concurrent increments of different
metrics (or different label sets of one metric) never contend.  A
label lookup (:meth:`_Instrument.labels`) takes the instrument's child
lock only on the first use of a label set; callers on hot paths should
bind the child once (``child = counter.labels(op="metric")``) and call
``child.inc()`` thereafter.

Snapshots (:meth:`MetricsRegistry.collect` / ``snapshot``) read each
child under its own lock, so every individual sample is consistent
(a histogram's buckets/sum/count always agree) even under concurrent
writers.

A per-process default registry (:func:`get_registry`) is what the
serving layers instrument themselves against; :func:`use_registry`
swaps it temporarily (test isolation, overhead benchmarking with a
:class:`NullRegistry`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]


class MetricsError(ValueError):
    """Invalid metric name/labels, or conflicting re-registration."""


#: Prometheus metric-name grammar (colons are reserved for recording
#: rules, but legal in the exposition format).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Prometheus label-name grammar; ``__``-prefixed names are reserved.
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for request/operation latencies in
#: seconds: 0.5 ms resolution at the fast end, 10 s at the slow end.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def validate_metric_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(
            f"invalid metric name {name!r}: must match {_NAME_RE.pattern}"
        )
    return name


def validate_label_names(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(str(n) for n in labelnames)
    for name in names:
        if not _LABEL_RE.match(name) or name.startswith("__"):
            raise MetricsError(
                f"invalid label name {name!r}: must match {_LABEL_RE.pattern} "
                "and not start with '__'"
            )
    if len(set(names)) != len(names):
        raise MetricsError(f"duplicate label names in {names}")
    return names


# --------------------------------------------------------------------- #
# Children: one per (instrument, label values) — each with its own lock
# --------------------------------------------------------------------- #
class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_function")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._function = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn`` at collection time instead of storing a value."""
        with self._lock:
            self._function = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._function
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            # A callback gauge must never break collection (e.g. reading
            # the queue depth of an already-closed admission queue).
            return 0.0


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        # One slot per finite bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        """Consistent ``(per-bucket counts, sum, count)`` triple."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #
class _Instrument:
    """Shared labels machinery; subclasses pick the child type."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = validate_metric_name(name)
        self.help = str(help)
        self.labelnames = validate_label_names(labelnames)
        self._children_lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # Unlabelled instruments get their single child eagerly so the
            # hot path (`counter.inc()`) never takes the children lock.
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child for one label-value set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"{self.name} takes labels {self.labelnames}, got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._children_lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricsError(
                f"{self.name} is labelled {self.labelnames}; use .labels(...)"
            )
        return self._children[()]

    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels dict, child) `` pairs, label-insertion ordered."""
        with self._children_lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child) for key, child in items]


class Counter(_Instrument):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Instrument):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricsError(f"histogram buckets must strictly increase: {bounds}")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """Get-or-create home for instruments; the unit of collection.

    Registration is idempotent: asking for an existing name returns the
    existing instrument, provided kind and label names match (a mismatch
    raises :class:`MetricsError` — two subsystems silently sharing one
    name with different shapes is always a bug).  This is what lets every
    :class:`~repro.store.wal.WriteAheadLog` or admission queue in a
    process bind "its" counters without coordinating ownership.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    str(n) for n in labelnames
                ):
                    raise MetricsError(
                        f"metric {name!r} already registered as a "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def collect(self) -> List[_Instrument]:
        """Registered instruments, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe plain-dict view of every instrument (stable keys).

        Shape (the ``stats()["metrics"]`` payload)::

            {name: {"type": "counter"|"gauge"|"histogram",
                    "help": str,
                    "values": [{"labels": {...}, "value": v}            # counter/gauge
                               | {"labels": {...}, "count": n,
                                  "sum": s, "buckets": {"0.005": c, ...}}]}}  # histogram
        """
        out: Dict[str, object] = {}
        for instrument in self.collect():
            values: List[Dict[str, object]] = []
            for labels, child in instrument.samples():
                if isinstance(child, _HistogramChild):
                    counts, total, count = child.snapshot()
                    values.append(
                        {
                            "labels": labels,
                            "count": count,
                            "sum": total,
                            "buckets": {
                                format_number(b): c
                                for b, c in zip(instrument.buckets, counts)
                            },
                            "inf": counts[-1],
                        }
                    )
                else:
                    values.append({"labels": labels, "value": child.value})
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "values": values,
            }
        return out


def format_number(value: float) -> str:
    """Render a sample value the way the exposition format expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# --------------------------------------------------------------------- #
# Null registry: free-of-charge instruments for overhead measurement
# --------------------------------------------------------------------- #
class _NullInstrument:
    """Accepts the full instrument surface; does nothing."""

    def labels(self, **labels: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are shared no-ops.

    Components constructed while a ``NullRegistry`` is the process
    default bind zero-cost instruments — the uninstrumented baseline of
    ``benchmarks/bench_obs_overhead.py``.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NULL

    def gauge(self, name, help="", labelnames=()):  # type: ignore[override]
        return _NULL

    def histogram(  # type: ignore[override]
        self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ):
        return _NULL

    def snapshot(self) -> Dict[str, object]:
        return {}


# --------------------------------------------------------------------- #
# Per-process default registry
# --------------------------------------------------------------------- #
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The per-process default registry every layer instruments against."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped default-registry swap (test isolation, overhead baselines).

    Components bind their instruments at *construction* time, so only
    objects constructed inside the block report to ``registry``.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)

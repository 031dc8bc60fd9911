"""Wall-clock timing helpers.

The paper's framework (Section IV) reports a per-stage cost breakdown
(Table I: preprocessing, s-overlap, squeeze, s-connected-components).  The
:class:`StageTimes` accumulator mirrors that breakdown and is used both by
:class:`repro.core.pipeline.SLinePipeline` and by the benchmark harness.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class StageTimes:
    """Accumulates named stage durations (seconds).

    Stages may be recorded multiple times; durations accumulate.  The total
    is the sum of all recorded stages unless an explicit ``total`` stage was
    recorded.
    """

    times: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager that times the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under stage ``name``."""
        self.times[name] = self.times.get(name, 0.0) + float(seconds)

    def get(self, name: str, default: float = 0.0) -> float:
        """Return the accumulated duration of ``name`` (``default`` if absent)."""
        return self.times.get(name, default)

    @property
    def total(self) -> float:
        """Total seconds across all recorded stages."""
        if "total" in self.times:
            return self.times["total"]
        return sum(self.times.values())

    def merge(self, other: "StageTimes") -> "StageTimes":
        """Accumulate every stage of ``other`` into this object and return self."""
        for name, seconds in other.times.items():
            self.add(name, seconds)
        return self

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the stage → seconds mapping."""
        return dict(self.times)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{k}={v:.4f}s" for k, v in self.times.items()]
        return "StageTimes(" + ", ".join(parts) + f", total={self.total:.4f}s)"

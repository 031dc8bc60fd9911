"""Shared fixtures for the experiment-reproduction benchmarks.

Every ``bench_*.py`` module regenerates one table or figure of the paper.
Datasets are laptop-scale surrogates (see ``repro.generators.datasets``);
the scale factor can be raised with the ``REPRO_BENCH_SCALE`` environment
variable for heavier runs.  Each benchmark prints the paper-style rows or
series through the ``report`` fixture, which also writes them to
``benchmarks/results/<name>.txt``; docs/ARCHITECTURE.md ("Which kernel runs
where") says which kernels these benchmarks time and why.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.benchmarks import quick_mode
from repro.generators.datasets import load_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: Default scale factor applied to the Table IV surrogates in benchmarks.
DEFAULT_SCALE = 0.3

#: Quick mode (REPRO_BENCH_QUICK=1): smaller datasets and fewer rounds, so
#: the CI perf-smoke job finishes in minutes.  Headline *floors* scale down
#: with it — each bench module derives both from :func:`quick_mode`.
BENCH_QUICK = quick_mode()


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Dataset scale factor (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Seed used for every surrogate dataset in the benchmarks."""
    return int(os.environ.get("REPRO_BENCH_SEED", 0))


@pytest.fixture(scope="session")
def datasets(bench_scale, bench_seed):
    """Lazily-loaded cache of Table IV surrogate datasets at bench scale."""
    cache = {}

    def load(name: str, scale: float | None = None):
        key = (name, scale or bench_scale)
        if key not in cache:
            cache[key] = load_dataset(name, scale=key[1], seed=bench_seed)
        return cache[key]

    return load


@pytest.fixture
def report(capsys, request):
    """Print a paper-style table/series and persist it under benchmarks/results/.

    Pass ``data=`` (a JSON-serialisable mapping) to additionally write
    ``benchmarks/results/BENCH_<name>.json`` — the machine-readable
    artefact the CI perf-smoke job uploads and gates on.  Headline
    benchmarks put at least ``{"name", "speedup", "floor"}`` in it (see
    ``benchmarks/check_perf_floors.py``).
    """

    def _report(text: str, name: str | None = None, data: dict | None = None) -> None:
        label = name or request.node.name.replace("/", "_")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{label}.txt").write_text(text + "\n")
        if data is not None:
            payload = {"name": label, "quick": BENCH_QUICK, **data}
            (RESULTS_DIR / f"BENCH_{label}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        with capsys.disabled():
            print(f"\n{text}")

    return _report

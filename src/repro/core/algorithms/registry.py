"""The paper's Table III variant notation and a runner for it.

A variant name is three characters, e.g. ``"2BA"``:

* first character — the algorithm: ``1`` (Algorithm 1, set-intersection
  heuristic) or ``2`` (Algorithm 2, hashmap);
* second character — the workload partitioning: ``B`` (blocked) or ``C``
  (cyclic);
* third character — relabel-by-degree: ``A`` (ascending), ``D``
  (descending) or ``N`` (no relabelling).

:func:`run_variant` performs the relabelling (its cost is charged to the
run, as in the paper), executes the chosen algorithm with the chosen
partitioning, and maps the resulting edge list back to the original
hyperedge IDs so different variants are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.core.algorithms.base import AlgorithmResult
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.core.algorithms.heuristic import s_line_graph_heuristic
from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import relabel_edges_by_degree
from repro.parallel.executor import Backend, ParallelConfig
from repro.parallel.workload import WorkloadStats
from repro.utils.timing import StageTimes
from repro.utils.validation import ValidationError

#: All twelve variants evaluated in the paper's Figure 7.
ALL_VARIANTS = [
    "1BA", "1BD", "1BN", "1CA", "1CD", "1CN",
    "2BA", "2BD", "2BN", "2CA", "2CD", "2CN",
]

_PARTITIONING = {"B": "blocked", "C": "cyclic"}
_RELABEL = {"A": "ascending", "D": "descending", "N": "none"}


@dataclass(frozen=True)
class VariantSpec:
    """Decoded variant: algorithm number, partitioning strategy and relabel order."""

    algorithm: int
    partitioning: Literal["blocked", "cyclic"]
    relabel: Literal["ascending", "descending", "none"]
    notation: str


@dataclass
class VariantRunResult:
    """Outcome of running one variant end to end."""

    spec: VariantSpec
    graph: SLineGraph
    times: StageTimes
    workload: WorkloadStats

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds including relabelling."""
        return self.times.total


def parse_variant(notation: str) -> VariantSpec:
    """Decode a Table III variant name such as ``"2BA"`` into a :class:`VariantSpec`."""
    name = notation.strip().upper()
    if len(name) != 3:
        raise ValidationError(f"variant notation must have 3 characters, got {notation!r}")
    algo_char, part_char, relabel_char = name
    if algo_char not in ("1", "2"):
        raise ValidationError(f"unknown algorithm {algo_char!r} in variant {notation!r}")
    if part_char not in _PARTITIONING:
        raise ValidationError(f"unknown partitioning {part_char!r} in variant {notation!r}")
    if relabel_char not in _RELABEL:
        raise ValidationError(f"unknown relabelling {relabel_char!r} in variant {notation!r}")
    return VariantSpec(
        algorithm=int(algo_char),
        partitioning=_PARTITIONING[part_char],  # type: ignore[arg-type]
        relabel=_RELABEL[relabel_char],  # type: ignore[arg-type]
        notation=name,
    )


def run_variant(
    h: Hypergraph,
    s: int,
    notation: str,
    num_workers: int = 1,
    backend: Backend = "serial",
    grainsize: Optional[int] = None,
) -> VariantRunResult:
    """Run one Table III variant end to end and return the s-line graph.

    Parameters
    ----------
    h:
        Input hypergraph (original IDs).
    s:
        Overlap threshold.
    notation:
        Three-character variant name (see module docstring).
    num_workers, backend, grainsize:
        Parallel-execution parameters forwarded to :class:`ParallelConfig`.

    Returns
    -------
    VariantRunResult
        The s-line graph in *original* hyperedge IDs, the per-stage timing
        breakdown (``relabel`` and ``s_overlap``) and the workload counters.
    """
    spec = parse_variant(notation)
    times = StageTimes()
    with times.stage("relabel"):
        relabel = relabel_edges_by_degree(h, spec.relabel)
    working = relabel.hypergraph
    config = ParallelConfig(
        num_workers=num_workers,
        strategy=spec.partitioning,
        backend=backend,
        grainsize=grainsize,
    )
    with times.stage("s_overlap"):
        if spec.algorithm == 1:
            result: AlgorithmResult = s_line_graph_heuristic(working, s, config=config)
        else:
            result = s_line_graph_hashmap(working, s, config=config)
    graph = result.graph.translate_ids(relabel.new_to_old, h.num_edges)
    return VariantRunResult(
        spec=spec, graph=graph, times=times, workload=result.workload
    )

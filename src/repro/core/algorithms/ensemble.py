"""Algorithm 3 of the paper: one counting pass for an ensemble of s values.

When several s-line graphs are needed (e.g. the algebraic-connectivity sweep
of Figure 6 or the density sweep of Figure 4), re-running Algorithm 2 per
``s`` repeats the counting work.  Algorithm 3 decouples counting from
filtering: the overlap counts of every hyperedge pair (reached through at
least one shared vertex, upper triangle only, degree-pruned by the smallest
requested ``s``) are accumulated once and then filtered per ``s``.

The price is memory: the full overlap structure must be materialised.  The
paper reports Algorithm 3 running out of memory on most large datasets; we
reproduce that behaviour in a controlled way with an explicit memory-budget
estimate that raises :class:`MemoryBudgetError` before attempting an
allocation that would not fit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithms.base import active_hyperedges, run_reference_kernel
from repro.core.algorithms.hashmap import overlap_row
from repro.core.slinegraph import SLineGraph, SLineGraphEnsemble
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.parallel.workload import WorkerCounters, WorkloadStats
from repro.utils.validation import check_s_values


class MemoryBudgetError(MemoryError):
    """Raised when the estimated overlap-table footprint exceeds the budget."""


#: Conservative per-stored-pair cost of a Python dict entry holding
#: (int key, int value): key object + value object + hash-table slot.
BYTES_PER_OVERLAP_ENTRY = 120


def estimate_overlap_memory(h: Hypergraph, s_min: int = 1) -> int:
    """Estimate the bytes needed to hold all pairwise overlap counts.

    The estimate is an upper bound based on the number of wedges (each wedge
    contributes at most one stored pair): ``sum over pruned hyperedges of
    sum over member vertices of deg(v)``, times a per-entry constant.
    """
    sizes = h.edge_sizes()
    members = h.edges_csr.indices[np.repeat(sizes >= s_min, sizes)]
    return int(h.vertex_degrees()[members].sum()) * BYTES_PER_OVERLAP_ENTRY


def _counting_kernel(
    edge_indptr: List[int],
    edge_indices: List[int],
    vertex_indptr: List[int],
    vertex_indices: List[int],
    edge_sizes: List[int],
    s_min: int,
    edge_ids: np.ndarray,
    worker_id: int,
) -> Tuple[Dict[int, Dict[int, int]], WorkerCounters]:
    """Counting pass of Algorithm 3 over one partition of hyperedges: the
    wedge walk of Algorithm 2, with every overlap row kept."""
    overlap: Dict[int, Dict[int, int]] = {}
    processed = wedges = 0
    for i in edge_ids.tolist():
        if edge_sizes[i] < s_min:
            continue  # degree pruning by the smallest requested s
        processed += 1
        row, walked = overlap_row(edge_indptr, edge_indices, vertex_indptr, vertex_indices, i)
        wedges += walked
        if row:
            overlap[i] = row
    return overlap, WorkerCounters(worker_id, processed, wedges)


def s_line_graph_ensemble_hashmap(
    h: Hypergraph,
    s_values: Sequence[int],
    config: ParallelConfig = ParallelConfig(),
    memory_budget_bytes: Optional[int] = None,
) -> Tuple[SLineGraphEnsemble, WorkloadStats]:
    """Compute the s-line graphs for every ``s`` in ``s_values`` (Algorithm 3).

    Parameters
    ----------
    h:
        Input hypergraph.
    s_values:
        The overlap thresholds; duplicates are collapsed and the values are
        processed in ascending order.
    config:
        Partitioning/backend for the counting pass; the per-s filtering pass
        is parallelised over s values with the same worker count.
    memory_budget_bytes:
        Optional cap on the estimated size of the overlap table.  When the
        estimate exceeds the cap a :class:`MemoryBudgetError` is raised —
        this reproduces (deterministically) the out-of-memory behaviour the
        paper observed for Algorithm 3 on large datasets.

    Returns
    -------
    (ensemble, workload):
        The :class:`SLineGraphEnsemble` keyed by ``s`` and the counting-pass
        workload statistics.
    """
    s_list = check_s_values(s_values)
    s_min = s_list[0]
    if memory_budget_bytes is not None:
        estimate = estimate_overlap_memory(h, s_min)
        if estimate > memory_budget_bytes:
            raise MemoryBudgetError(
                f"estimated overlap table of {estimate} bytes exceeds the "
                f"budget of {memory_budget_bytes} bytes; use "
                "s_line_graph_hashmap per s value instead"
            )
    results = run_reference_kernel(_counting_kernel, h, s_min, config=config)
    overlap: Dict[int, Dict[int, int]] = {}
    counters: List[WorkerCounters] = []
    for partial_overlap, partial_counters in results:
        overlap.update(partial_overlap)
        counters.append(partial_counters)

    # Filtering pass: build one edge list per s from the shared counts.
    graphs: Dict[int, SLineGraph] = {}
    for s in s_list:
        pairs: List[Tuple[int, int, int]] = []
        for i, row in overlap.items():
            for j, n in row.items():
                if n >= s:
                    pairs.append((i, j, n))
        graphs[s] = SLineGraph.from_weighted_pairs(
            s=s,
            pairs=pairs,
            num_hyperedges=h.num_edges,
            active_vertices=active_hyperedges(h, s),
        )
    return SLineGraphEnsemble(graphs=graphs), WorkloadStats.from_counters(counters)

"""Shared result type and helpers for the s-line-graph algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, List, Tuple

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig, run_partitioned
from repro.parallel.workload import WorkerCounters, WorkloadStats


@dataclass
class AlgorithmResult:
    """Output of a single s-line-graph construction.

    Attributes
    ----------
    graph:
        The computed :class:`~repro.core.slinegraph.SLineGraph` (edge IDs are
        those of the hypergraph passed to the algorithm).
    workload:
        Per-worker work counters (wedges visited, set intersections
        performed, edges emitted), used by the scaling and workload
        benchmarks.
    algorithm:
        Short name of the algorithm that produced the result.
    """

    graph: SLineGraph
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    algorithm: str = ""

    @property
    def num_edges(self) -> int:
        """Number of edges in the computed s-line graph."""
        return self.graph.num_edges


def active_hyperedges(h: Hypergraph, s: int) -> np.ndarray:
    """The vertex set ``E_s`` of the s-line graph: hyperedges with ``|e| >= s``."""
    return np.flatnonzero(h.edge_sizes() >= s).astype(np.int64)


def csr_lists(h: Hypergraph) -> Tuple[List[int], ...]:
    """``h``'s two incidence CSRs and its hyperedge sizes as plain Python lists:
    ``(edge_indptr, edge_indices, vertex_indptr, vertex_indices, edge_sizes)``.

    The per-hyperedge reference kernels read these one element at a time: a
    list element is a ready ``int``, where every read of a NumPy element boxes
    a new scalar.  :func:`run_reference_kernel` makes them once per call and
    hands the same lists to every partition.
    """
    return (
        h.edges_csr.indptr.tolist(),
        h.edges_csr.indices.tolist(),
        h.vertices_csr.indptr.tolist(),
        h.vertices_csr.indices.tolist(),
        h.edge_sizes().tolist(),
    )


def run_reference_kernel(
    kernel_fn: Callable[..., Any], h: Hypergraph, *params: Any, config: ParallelConfig
) -> List[Any]:
    """Run a per-hyperedge kernel over every hyperedge of ``h``, partitioned
    by ``config``: ``kernel_fn(*csr_lists(h), *params, edge_ids, worker_id)``."""
    kernel = partial(kernel_fn, *csr_lists(h), *params)
    return run_partitioned(kernel, np.arange(h.num_edges, dtype=np.int64), config)


def build_result(
    h: Hypergraph,
    s: int,
    pairs: List[Tuple[int, int, int]],
    counters: List[WorkerCounters],
    algorithm: str,
) -> AlgorithmResult:
    """Assemble an :class:`AlgorithmResult` from per-worker edge triples."""
    graph = SLineGraph.from_weighted_pairs(
        s=s,
        pairs=pairs,
        num_hyperedges=h.num_edges,
        active_vertices=active_hyperedges(h, s),
    )
    return AlgorithmResult(
        graph=graph,
        workload=WorkloadStats.from_counters(counters),
        algorithm=algorithm,
    )


def merge_results(
    h: Hypergraph,
    s: int,
    results: List[Tuple[List[Tuple[int, int, int]], WorkerCounters]],
    algorithm: str,
) -> AlgorithmResult:
    """:func:`build_result` over per-partition ``(pairs, counters)`` results,
    concatenated in partition order."""
    pairs: List[Tuple[int, int, int]] = []
    for partial_pairs, _ in results:
        pairs.extend(partial_pairs)
    return build_result(h, s, pairs, [c for _, c in results], algorithm)

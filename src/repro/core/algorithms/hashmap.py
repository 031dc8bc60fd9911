"""Algorithm 2 of the paper: hashmap-based overlap counting (no set intersections).

For every hyperedge ``e_i`` (degree-pruned), the algorithm walks the wedges
``(e_i, v_k, e_j)`` with ``j > i`` and increments ``overlap_count[e_j]``.
After the walk, every neighbour whose running count reached ``s`` becomes an
s-line-graph edge ``{e_i, e_j}`` with weight equal to the exact overlap.
This "confirms" common members instead of "searching" for them, eliminating
set intersections entirely (the paper's Table I reports zero intersections
versus 8.66×10⁹ for Algorithm 1 on LiveJournal).

Two overlap-counter policies are provided, mirroring the paper's
thread-local-storage discussion (Section III-F):

* ``dynamic`` (default) — a fresh ``dict`` per outer iteration;
* ``preallocated`` — a per-worker dense counter array reset between
  iterations, preferable for dense-overlap inputs (e.g. the Web dataset).

Both are reference kernels in pure Python: they walk the CSR as plain lists
(:func:`~repro.core.algorithms.base.csr_lists`, converted once per call),
never as NumPy arrays, whose every element read boxes a scalar, and count
wedges per vertex row rather than per wedge.  Vertex rows need not be
sorted (a relabelled hypergraph's are not), so the ``j > i`` test stays in
the inner loop.  :func:`overlap_row` is the per-hyperedge count the
``dynamic`` policy and Algorithm 3's counting pass share.
"""

from __future__ import annotations

from typing import Dict, List, Literal, Tuple

import numpy as np

from repro.core.algorithms.base import (
    AlgorithmResult,
    merge_results,
    run_reference_kernel,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.parallel.workload import WorkerCounters
from repro.utils.validation import ValidationError, check_s_value

CounterPolicy = Literal["dynamic", "preallocated"]


def overlap_row(
    edge_indptr: List[int],
    edge_indices: List[int],
    vertex_indptr: List[int],
    vertex_indices: List[int],
    i: int,
) -> Tuple[Dict[int, int], int]:
    """The wedge walk of one hyperedge ``e_i``: ``{j: |e_i ∩ e_j|}`` for every
    ``j > i`` a wedge reaches, in first-reached order, and the number of
    wedges walked (``j <= i`` included).  Vertex rows need not be sorted."""
    row: Dict[int, int] = {}
    get = row.get
    wedges = 0
    for v in edge_indices[edge_indptr[i] : edge_indptr[i + 1]]:
        start, stop = vertex_indptr[v], vertex_indptr[v + 1]
        wedges += stop - start
        for j in vertex_indices[start:stop]:
            if j > i:
                row[j] = get(j, 0) + 1
    return row, wedges


def _hashmap_kernel_dynamic(
    edge_indptr: List[int],
    edge_indices: List[int],
    vertex_indptr: List[int],
    vertex_indices: List[int],
    edge_sizes: List[int],
    s: int,
    edge_ids: np.ndarray,
    worker_id: int,
) -> Tuple[List[Tuple[int, int, int]], WorkerCounters]:
    """Algorithm 2 with a dynamically allocated per-iteration hashmap."""
    pairs: List[Tuple[int, int, int]] = []
    processed = wedges = 0
    for i in edge_ids.tolist():
        if edge_sizes[i] < s:
            continue  # degree-based pruning: e_i cannot be in E_s
        processed += 1
        row, walked = overlap_row(edge_indptr, edge_indices, vertex_indptr, vertex_indices, i)
        wedges += walked
        pairs += [(i, j, n) for j, n in row.items() if n >= s]
    return pairs, WorkerCounters(worker_id, processed, wedges, len(pairs))


def _hashmap_kernel_preallocated(
    edge_indptr: List[int],
    edge_indices: List[int],
    vertex_indptr: List[int],
    vertex_indices: List[int],
    edge_sizes: List[int],
    s: int,
    edge_ids: np.ndarray,
    worker_id: int,
) -> Tuple[List[Tuple[int, int, int]], WorkerCounters]:
    """Algorithm 2 with a pre-allocated per-worker counter array (reset per iteration)."""
    counts = [0] * len(edge_sizes)
    touched: List[int] = []
    pairs: List[Tuple[int, int, int]] = []
    processed = wedges = 0
    for i in edge_ids.tolist():
        if edge_sizes[i] < s:
            continue
        processed += 1
        for v in edge_indices[edge_indptr[i] : edge_indptr[i + 1]]:
            start, stop = vertex_indptr[v], vertex_indptr[v + 1]
            wedges += stop - start
            for j in vertex_indices[start:stop]:
                if j > i:
                    n = counts[j]
                    if n == 0:
                        touched.append(j)
                    counts[j] = n + 1
        for j in touched:
            n = counts[j]
            if n >= s:
                pairs.append((i, j, n))
            counts[j] = 0
        touched.clear()
    return pairs, WorkerCounters(worker_id, processed, wedges, len(pairs))


def s_line_graph_hashmap(
    h: Hypergraph,
    s: int,
    config: ParallelConfig = ParallelConfig(),
    counter_policy: CounterPolicy = "dynamic",
) -> AlgorithmResult:
    """Compute ``L_s(H)`` with Algorithm 2 (hashmap overlap counting).

    Parameters
    ----------
    h:
        Input hypergraph.
    s:
        Overlap threshold.
    config:
        Partitioning of the outer hyperedge loop (blocked/cyclic, worker
        count, backend).
    counter_policy:
        ``"dynamic"`` for a fresh hashmap per hyperedge (the common case) or
        ``"preallocated"`` for a per-worker dense counter reused across
        iterations (dense-overlap inputs).
    """
    s = check_s_value(s)
    if counter_policy == "dynamic":
        kernel_fn = _hashmap_kernel_dynamic
    elif counter_policy == "preallocated":
        kernel_fn = _hashmap_kernel_preallocated
    else:
        raise ValidationError(f"unknown counter policy: {counter_policy!r}")
    results = run_reference_kernel(kernel_fn, h, s, config=config)
    return merge_results(h, s, results, algorithm="hashmap")

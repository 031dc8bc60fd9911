"""Algorithm 1 of the paper: wedge enumeration + explicit set intersection.

This is the prior state-of-the-art algorithm (Liu et al., HiPC'21) that the
paper's hashmap algorithms are compared against.  For every hyperedge
``e_i`` (degree-pruned), the algorithm walks the wedges ``(e_i, v_k, e_j)``
with ``j > i`` and, for every *distinct* neighbour ``e_j`` reached this way,
performs a set intersection of the two hyperedges' vertex lists.  The
heuristics of the original algorithm are reproduced:

* **degree-based pruning** — skip hyperedges with ``|e| < s`` on both sides;
* **skipping already-visited hyperedges** — each ``e_j`` is intersected at
  most once per ``e_i`` even if multiple wedges lead to it;
* **short-circuiting** — the merge-based intersection stops as soon as the
  threshold ``s`` is reached (optional, because it yields weights truncated
  to ``s``) or as soon as the remaining elements cannot reach ``s``;
* **upper triangle only** — wedges are traversed with ``j > i`` only.

The number of set intersections performed is reported in the workload
counters (the paper's Table I reports 8.66×10⁹ of them for LiveJournal).

Like Algorithm 2's kernels, this one walks the CSR as plain Python lists
(:func:`~repro.core.algorithms.base.csr_lists`), so the comparison between
set intersection and wedge counting stays on one substrate.  The merge reads
hyperedge member rows in ascending order, as the builders in
:mod:`repro.hypergraph.builders` store them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.algorithms.base import (
    AlgorithmResult,
    merge_results,
    run_reference_kernel,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.parallel.workload import WorkerCounters
from repro.utils.validation import check_s_value


def _sorted_intersection_count(
    a: Sequence[int], b: Sequence[int], s: int, short_circuit: bool
) -> int:
    """Merge-count of common elements of two sorted sequences.

    Always abandons the merge when the remaining elements cannot reach ``s``
    (a pure pruning optimisation that never changes the outcome).  When
    ``short_circuit`` is True it additionally returns as soon as ``s``
    common elements are found, in which case the returned count is a lower
    bound truncated at ``s`` (exactly what the original algorithm does).
    """
    i = j = 0
    count = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        # Failure short-circuit: not enough elements left to reach s.
        if count + min(na - i, nb - j) < s:
            return count
        ai, bj = a[i], b[j]
        if ai == bj:
            count += 1
            if short_circuit and count >= s:
                return count
            i += 1
            j += 1
        elif ai < bj:
            i += 1
        else:
            j += 1
    return count


def _heuristic_kernel(
    edge_indptr: List[int],
    edge_indices: List[int],
    vertex_indptr: List[int],
    vertex_indices: List[int],
    edge_sizes: List[int],
    s: int,
    short_circuit: bool,
    edge_ids: np.ndarray,
    worker_id: int,
) -> Tuple[List[Tuple[int, int, int]], WorkerCounters]:
    """Per-partition body of Algorithm 1 (module-level so it pickles for processes)."""
    pairs: List[Tuple[int, int, int]] = []
    processed = wedges = intersections = 0
    for i in edge_ids.tolist():
        if edge_sizes[i] < s:
            continue
        processed += 1
        members_i = edge_indices[edge_indptr[i] : edge_indptr[i + 1]]
        visited: set[int] = set()
        for v in members_i:
            start, stop = vertex_indptr[v], vertex_indptr[v + 1]
            wedges += stop - start
            for j in vertex_indices[start:stop]:
                if j <= i or j in visited:
                    continue
                visited.add(j)
                if edge_sizes[j] < s:
                    continue
                members_j = edge_indices[edge_indptr[j] : edge_indptr[j + 1]]
                intersections += 1
                count = _sorted_intersection_count(members_i, members_j, s, short_circuit)
                if count >= s:
                    pairs.append((i, j, count))
    return pairs, WorkerCounters(worker_id, processed, wedges, len(pairs), intersections)


def s_line_graph_heuristic(
    h: Hypergraph,
    s: int,
    config: ParallelConfig = ParallelConfig(),
    short_circuit: bool = False,
) -> AlgorithmResult:
    """Compute ``L_s(H)`` with Algorithm 1 (set-intersection + heuristics).

    Parameters
    ----------
    h:
        Input hypergraph.
    s:
        Overlap threshold.
    config:
        Partitioning of the outer hyperedge loop (blocked/cyclic, worker
        count, backend).
    short_circuit:
        Stop each intersection as soon as ``s`` common vertices are found.
        This matches the original algorithm but truncates edge weights at
        ``s``; leave False when exact overlap counts are needed.
    """
    s = check_s_value(s)
    results = run_reference_kernel(_heuristic_kernel, h, s, short_circuit, config=config)
    return merge_results(h, s, results, algorithm="heuristic")

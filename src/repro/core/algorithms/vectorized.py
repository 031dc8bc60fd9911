"""Algorithm 2 a block of hyperedges at a time: sort-counted wedges.

:mod:`repro.core.algorithms.hashmap` walks the wedges ``(e_i, v_k, e_j)`` of
one hyperedge at a time and counts them in a Python ``dict``.  This module
counts the same wedges for a whole *block* of hyperedges in a handful of
array operations: two CSR gathers (members of the block's hyperedges, then
the hyperedges of those members) enumerate every wedge of the block, the
``j > i`` mask keeps the upper triangle, each surviving wedge becomes one
int64 key ``i * m + j``, and one sort plus a run-length count of the keys is
the overlap count of every pair — the block-sized analogue of the paper's
per-thread hashmap (Section III-F).  Degree pruning, the partitioning of the
outer loop and every :class:`~repro.parallel.workload.WorkerCounters` value
are those of the ``hashmap`` kernel; only the counting substrate differs.

A block holds at most :data:`_BLOCK_WEDGES` wedges, so working memory is
bounded by the block, not by the input.  The sorts and the gathers run inside
NumPy with the GIL released, so the ``thread`` backend can overlap partitions:
on two cores, flat at 1.6M wedges and 1.26–1.35x with 2–4 workers at 6.4M
(the concatenation and the :class:`SLineGraph` constructor stay serial).

This is the kernel the engine and the store build their overlap index with
(:data:`repro.engine.index.BUILD_ALGORITHM`); the paper's figures and tables
time the per-hyperedge reference kernels (see "Which kernel runs where" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.algorithms.base import AlgorithmResult, active_hyperedges
from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig, run_partitioned
from repro.parallel.workload import WorkerCounters, WorkloadStats
from repro.utils.validation import ValidationError, check_s_value

#: Wedge budget of one block.  Stage 3 at scale 4 (16k hyperedges, 1.64M
#: wedges, 467k pairs; 1 CPU, best of 15, three sweeps on a shared host
#: whose own speed wandered 45–70 ms) is flat within that noise from 2**16
#: to 2**22 — 54–77, 53–68, 48–76, 52–76 ms at 2**16 / 18 / 20 / 22 — and
#: slower below (2**14: 67–85, 2**12: 84–86).  So the constant sits where
#: a block's arrays (at most 64 B per wedge, 16 MB) stay under the output
#: they produce; it is not a tuning knob.
_BLOCK_WEDGES = 1 << 18


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The concatenated CSR rows ``rows`` and the length of each."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    stops = np.cumsum(lengths)
    total = int(stops[-1]) if stops.size else 0
    # Position p of row r's slice is ``starts[r] + (p - first position of r)``.
    positions = np.repeat(starts - (stops - lengths), lengths)
    positions += np.arange(total, dtype=np.int64)
    return indices[positions], lengths


def _blocks(wedges: np.ndarray) -> Iterator[slice]:
    """Cut positions ``0..len(wedges)`` into consecutive slices of at most
    :data:`_BLOCK_WEDGES` wedges; a position over the budget is its own slice.
    """
    prefix = np.cumsum(wedges)
    start, done = 0, 0
    while start < prefix.size:
        stop = int(np.searchsorted(prefix, done + _BLOCK_WEDGES, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start, done = stop, int(prefix[stop - 1])


def _count_block(
    edge_indptr: np.ndarray,
    edge_indices: np.ndarray,
    vertex_indptr: np.ndarray,
    vertex_indices: np.ndarray,
    s: int,
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair ``(i, j)``, ``i`` in ``ids`` and ``j > i``, that shares at
    least ``s`` vertices, with its overlap count; in (i, j) order.
    """
    num_edges = edge_indptr.size - 1
    members, sizes = _gather_rows(edge_indptr, edge_indices, ids)
    j, degrees = _gather_rows(vertex_indptr, vertex_indices, members)
    i = np.repeat(np.repeat(ids, sizes), degrees)
    keys = (i * num_edges + j)[j > i]
    if keys.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    keys.sort()
    # Equal keys are now adjacent: the length of each run is the number of
    # wedges between one pair, i.e. its overlap.
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    counts = np.diff(first, append=keys.size)
    keep = counts >= s
    pairs = np.column_stack(np.divmod(keys[first[keep]], num_edges))
    return pairs, counts[keep]


def _vectorized_kernel(
    edge_indptr: np.ndarray,
    edge_indices: np.ndarray,
    vertex_indptr: np.ndarray,
    vertex_indices: np.ndarray,
    edge_wedges: np.ndarray,
    s: int,
    edge_ids: np.ndarray,
    worker_id: int,
) -> Tuple[np.ndarray, np.ndarray, WorkerCounters]:
    """Per-partition body: ``(edges, weights, counters)`` of the partition.

    ``edge_wedges[i]`` is the number of wedges leaving hyperedge ``i``.
    Rows come out in (i, j) order whenever ``edge_ids`` ascends.
    """
    sizes = edge_indptr[edge_ids + 1] - edge_indptr[edge_ids]
    ids = edge_ids[sizes >= s]  # degree-based pruning: e_i cannot be in E_s
    wedges = edge_wedges[ids]
    edges: List[np.ndarray] = [np.empty((0, 2), dtype=np.int64)]
    weights: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for block in _blocks(wedges):
        block_edges, block_weights = _count_block(
            edge_indptr, edge_indices, vertex_indptr, vertex_indices, s, ids[block]
        )
        edges.append(block_edges)
        weights.append(block_weights)
    out_edges, out_weights = np.concatenate(edges), np.concatenate(weights)
    counters = WorkerCounters(
        worker_id=worker_id,
        edges_processed=int(ids.size),
        wedges_visited=int(wedges.sum()),
        line_edges_emitted=int(out_weights.size),
    )
    return out_edges, out_weights, counters


def s_line_graph_vectorized(
    h: Hypergraph,
    s: int,
    config: ParallelConfig = ParallelConfig(),
) -> AlgorithmResult:
    """Compute ``L_s(H)`` with the block variant of Algorithm 2.

    Produces exactly the same edge list, weights and per-worker counters as
    :func:`repro.core.algorithms.hashmap.s_line_graph_hashmap`.
    """
    s = check_s_value(s)
    edges_csr, vertices_csr = h.edges_csr, h.vertices_csr
    # Python integers: the largest key, not a wrapped one, meets the limit.
    if h.num_edges * h.num_edges > np.iinfo(np.int64).max:
        raise ValidationError(
            f"{h.num_edges} hyperedges overflow the packed int64 pair key"
        )
    # Wedges per hyperedge: the degrees of its members, summed by one prefix
    # sum over the incidences.
    prefix = np.zeros(edges_csr.nnz + 1, dtype=np.int64)
    np.cumsum(vertices_csr.row_degrees()[edges_csr.indices], out=prefix[1:])
    edge_wedges = prefix[edges_csr.indptr[1:]] - prefix[edges_csr.indptr[:-1]]
    kernel = partial(
        _vectorized_kernel,
        edges_csr.indptr,
        edges_csr.indices,
        vertices_csr.indptr,
        vertices_csr.indices,
        edge_wedges,
        s,
    )
    results = run_partitioned(kernel, np.arange(h.num_edges, dtype=np.int64), config)
    edges, weights, counters = zip(*results)  # at least one partition, always
    graph = SLineGraph(
        s=s,
        edges=np.concatenate(edges),
        weights=np.concatenate(weights),
        num_hyperedges=h.num_edges,
        active_vertices=active_hyperedges(h, s),
    )
    return AlgorithmResult(
        graph=graph,
        workload=WorkloadStats.from_counters(counters),
        algorithm="vectorized",
    )

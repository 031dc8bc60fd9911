"""A compact undirected graph in CSR form, weighted only when given weights.

The s-line graphs produced by the framework are ordinary undirected graphs;
this class stores them as a symmetric CSR adjacency (both directions of each
edge are stored) over ``numpy`` arrays, which is what the BFS/centrality/
PageRank kernels in this subpackage traverse.  Those kernels count hops, so
Stage 4 hands them the pattern alone: int32 columns and no weights.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.utils.validation import ValidationError, check_array_int


#: Most vertices a graph may have: every ID must fit an int32 column index.
MAX_VERTICES = int(np.iinfo(np.int32).max)


class Graph:
    """An undirected, optionally weighted graph stored as symmetric CSR.

    Parameters
    ----------
    num_vertices:
        Number of vertices (IDs ``0..num_vertices-1``, fewer than ``2**31``).
    indptr, indices:
        CSR adjacency arrays storing *both* directions of every edge.
        ``indices`` is held as int32 (4 bytes per stored entry), adopted
        without a copy when it already is; ``indptr`` as int64.
    weights:
        Per-stored-entry float64 weights aligned with ``indices``, or
        ``None`` for an unweighted graph, whose every edge counts as 1.
        Stage 4 (:meth:`repro.core.slinegraph.SLineGraph.to_graph`) builds
        unweighted graphs: no Stage-5 kernel reads a weight.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "weights", "metadata")

    def __init__(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        if num_vertices < 0:
            raise ValidationError("num_vertices must be non-negative")
        if num_vertices > MAX_VERTICES:
            raise ValidationError(
                f"a graph holds at most {MAX_VERTICES} vertices, got {num_vertices}"
            )
        self.num_vertices = int(num_vertices)
        self.indptr = check_array_int(indptr, "indptr")
        indices = check_array_int(indices, "indices", dtype=None)
        if self.indptr.size != self.num_vertices + 1:
            raise ValidationError("indptr must have length num_vertices + 1")
        if int(self.indptr[-1]) != indices.size:
            raise ValidationError("indptr[-1] must equal len(indices)")
        # Range-checked before narrowing, so an ID no int32 holds is refused,
        # not wrapped.
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_vertices):
            raise ValidationError("neighbour indices out of range")
        self.indices = indices.astype(np.int32, copy=False)
        self.weights = None
        if weights is not None:
            self.weights = np.asarray(weights, dtype=np.float64)
            if self.weights.shape != self.indices.shape:
                raise ValidationError("weights must align with indices")
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_symmetric_csr(cls, adjacency: sparse.csr_matrix) -> "Graph":
        """Adopt a scipy CSR that already *is* the graph: symmetric, no stored
        diagonal, no duplicate entries.  Its rows are sorted in place and its
        arrays go through the constructor's checks and dtype coercion; its
        ``data`` become the weights."""
        adjacency.sort_indices()
        return cls(adjacency.shape[0], adjacency.indptr, adjacency.indices, adjacency.data)

    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        edges: np.ndarray | Sequence[Tuple[int, int]],
        weights: Optional[np.ndarray | Sequence[float]] = None,
    ) -> "Graph":
        """Build from an undirected edge list ``(k, 2)`` (duplicates collapsed).

        Each input edge is stored in both directions; of a repeated edge the
        first weight wins.  Without ``weights`` the graph is unweighted.
        Self-loops are rejected — s-line graphs never contain them.
        """
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            w = np.ones(arr.shape[0], dtype=np.int8)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.size != arr.shape[0]:
                raise ValidationError("weights length must equal the number of edges")
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            raise ValidationError("self-loops are not supported")
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise ValidationError("edge endpoint out of range")
        lo, hi = arr.min(axis=1), arr.max(axis=1)
        # One key per undirected edge (exact: both endpoints < num_vertices,
        # whose indptr alone outgrows memory long before the product wraps).
        _, first = np.unique(lo * num_vertices + hi, return_index=True)
        lo, hi, w = lo[first], hi[first], w[first]
        # ``tocsr`` leaves every row sorted and duplicate-free.
        adjacency = sparse.coo_matrix(
            (
                np.concatenate([w, w]),
                (np.concatenate([lo, hi]), np.concatenate([hi, lo])),
            ),
            shape=(num_vertices, num_vertices),
        ).tocsr()
        return cls(
            num_vertices,
            adjacency.indptr,
            adjacency.indices,
            None if weights is None else adjacency.data,
        )

    @classmethod
    def from_scipy(cls, adjacency: sparse.spmatrix) -> "Graph":
        """Build from a symmetric scipy adjacency matrix (diagonal dropped)."""
        adj = sparse.coo_matrix(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        keep = (adj.row != adj.col) & (adj.data != 0)
        return cls.from_symmetric_csr(
            sparse.coo_matrix(
                (adj.data[keep], (adj.row[keep], adj.col[keep])), shape=adj.shape
            ).tocsr()
        )

    # ------------------------------------------------------------------ #
    # Shape / access
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def degrees(self) -> np.ndarray:
        """Degree of every vertex."""
        return np.diff(self.indptr)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``
        (weight 1.0 throughout an unweighted graph)."""
        rows = np.repeat(np.arange(self.num_vertices), self.degrees())
        upper = rows < self.indices
        yield from zip(
            rows[upper].tolist(),
            self.indices[upper].tolist(),
            self._data()[upper].tolist(),
        )

    def _data(self) -> np.ndarray:
        """The weights, or float64 ones for an unweighted graph."""
        if self.weights is None:
            return np.ones(self.indices.size, dtype=np.float64)
        return self.weights

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self, weighted: bool = True) -> sparse.csr_matrix:
        """The symmetric adjacency matrix as scipy CSR (float64 entries: the
        weights, or 1 where ``weighted`` is False or the graph has none)."""
        data = self._data() if weighted else np.ones(self.indices.size, dtype=np.float64)
        return sparse.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def subgraph(self, vertex_ids: Sequence[int] | np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns ``(graph, kept_vertex_ids)`` with compact
        IDs, weighted exactly when this graph is."""
        keep = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        if keep.size and (keep.min() < 0 or keep.max() >= self.num_vertices):
            raise ValidationError("vertex id out of range")
        sub = Graph.from_symmetric_csr(self.adjacency_matrix()[keep][:, keep])
        if self.weights is None:
            sub.weights = None
        return sub, keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

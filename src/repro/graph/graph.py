"""A compact undirected weighted graph in CSR form.

The s-line graphs produced by the framework are ordinary undirected graphs;
this class stores them as a symmetric CSR adjacency (both directions of each
edge are stored) over ``numpy`` arrays, which is what the BFS/centrality/
PageRank kernels in this subpackage traverse.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.utils.validation import ValidationError, check_array_int


class Graph:
    """An undirected, optionally weighted graph stored as symmetric CSR.

    Parameters
    ----------
    num_vertices:
        Number of vertices (IDs ``0..num_vertices-1``).
    indptr, indices:
        CSR adjacency arrays storing *both* directions of every edge.
    weights:
        Optional per-stored-entry weights aligned with ``indices``.
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
        self.num_vertices = int(num_vertices)
        self.indptr = check_array_int(indptr, "indptr")
        self.indices = check_array_int(indices, "indices")
        if self.indptr.size != self.num_vertices + 1:
            raise ValidationError("indptr must have length num_vertices + 1")
        if int(self.indptr[-1]) != self.indices.size:
            raise ValidationError("indptr[-1] must equal len(indices)")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValidationError("neighbour indices out of range")
        if weights is None:
            self.weights = np.ones(self.indices.size, dtype=np.float64)
        else:
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
        arrays go through the constructor's checks and dtype coercion."""
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
        first weight wins.  Self-loops are rejected — s-line graphs never
        contain them.
        """
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            w = np.ones(arr.shape[0], dtype=np.float64)
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
        return cls.from_symmetric_csr(
            sparse.coo_matrix(
                (
                    np.concatenate([w, w]),
                    (np.concatenate([lo, hi]), np.concatenate([hi, lo])),
                ),
                shape=(num_vertices, num_vertices),
            ).tocsr()
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
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``."""
        rows = np.repeat(np.arange(self.num_vertices), self.degrees())
        upper = rows < self.indices
        yield from zip(
            rows[upper].tolist(),
            self.indices[upper].tolist(),
            self.weights[upper].tolist(),
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self, weighted: bool = True) -> sparse.csr_matrix:
        """The symmetric adjacency matrix as scipy CSR."""
        data = self.weights if weighted else np.ones(self.indices.size, dtype=np.float64)
        return sparse.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def subgraph(self, vertex_ids: Sequence[int] | np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns ``(graph, kept_vertex_ids)`` with compact IDs."""
        keep = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        if keep.size and (keep.min() < 0 or keep.max() >= self.num_vertices):
            raise ValidationError("vertex id out of range")
        return Graph.from_symmetric_csr(self.adjacency_matrix()[keep][:, keep]), keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

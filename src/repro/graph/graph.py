"""A compact undirected graph in CSR form: the pattern, nothing more.

The s-line graphs produced by the framework are ordinary undirected graphs;
this class stores them as a symmetric CSR adjacency (both directions of each
edge are stored) over ``numpy`` arrays, which is what the BFS/centrality/
PageRank kernels in this subpackage traverse.  Those kernels count hops, so
a graph holds no weights: int32 columns, every edge counts as 1.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.utils.validation import ValidationError, check_array_int


#: Most vertices a graph may have: every ID must fit an int32 column index.
MAX_VERTICES = int(np.iinfo(np.int32).max)


class Graph:
    """An undirected graph stored as the pattern of a symmetric CSR.

    Parameters
    ----------
    num_vertices:
        Number of vertices (IDs ``0..num_vertices-1``, fewer than ``2**31``).
    indptr, indices:
        CSR adjacency arrays storing *both* directions of every edge.
        ``indices`` is held as int32 (4 bytes per stored entry), adopted
        without a copy when it already is; ``indptr`` as int64.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "metadata")

    def __init__(self, num_vertices: int, indptr: np.ndarray, indices: np.ndarray) -> None:
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
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        edges: np.ndarray | Sequence[Tuple[int, int]],
    ) -> "Graph":
        """Build from an undirected edge list ``(k, 2)`` (duplicates collapsed).

        Each input edge is stored in both directions.  Self-loops are
        rejected — s-line graphs never contain them.
        """
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            raise ValidationError("self-loops are not supported")
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise ValidationError("edge endpoint out of range")
        lo, hi = arr.min(axis=1), arr.max(axis=1)
        # One key per undirected edge (exact: both endpoints < num_vertices,
        # whose indptr alone outgrows memory long before the product wraps).
        _, first = np.unique(lo * num_vertices + hi, return_index=True)
        lo, hi = lo[first], hi[first]
        # ``tocsr`` leaves every row sorted and duplicate-free.
        adjacency = sparse.coo_matrix(
            (
                np.ones(2 * lo.size, dtype=np.int8),
                (np.concatenate([lo, hi]), np.concatenate([hi, lo])),
            ),
            shape=(num_vertices, num_vertices),
        ).tocsr()
        return cls(num_vertices, adjacency.indptr, adjacency.indices)

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

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> sparse.csr_matrix:
        """The symmetric adjacency matrix as scipy CSR, float64 ones."""
        return sparse.csr_matrix(
            (np.ones(self.indices.size), self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def subgraph(self, vertex_ids: Sequence[int] | np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns ``(graph, kept_vertex_ids)`` with compact IDs."""
        keep = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        if keep.size and (keep.min() < 0 or keep.max() >= self.num_vertices):
            raise ValidationError("vertex id out of range")
        adjacency = self.adjacency_matrix()[keep][:, keep]
        adjacency.sort_indices()
        return Graph(keep.size, adjacency.indptr, adjacency.indices), keep

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

"""The :class:`Hypergraph` type: a non-uniform hypergraph in dual CSR form.

A hypergraph ``H = <V, E>`` has ``n`` vertices and ``m`` hyperedges, each
hyperedge a subset of ``V``.  We store:

* ``edges``    — CSR with one row per hyperedge, columns = member vertices
  (the incidence matrix ``H`` read row-wise as ``H^T`` in the paper's
  ``m × n`` orientation, i.e. ``E.Adj``);
* ``vertices`` — CSR with one row per vertex, columns = incident hyperedges
  (``V.Adj``, the transpose).

This mirrors the bipartite adjacency used by the C++ framework in the paper
and gives O(1) access to both a hyperedge's members and a vertex's incident
hyperedges — the two traversals needed by the wedge-based s-line-graph
algorithms.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.hypergraph.csr import CSRMatrix
from repro.utils.validation import ValidationError


def _rows_ascend(csr: CSRMatrix) -> bool:
    """True when every row of ``csr`` lists its columns in ascending order.

    One vectorised pass: a step ``indices[k] -> indices[k + 1]`` may only
    descend where ``k + 1`` starts a new row.
    """
    indices = csr.indices
    if indices.size < 2:
        return True
    ascends = indices[1:] >= indices[:-1]
    starts = csr.indptr[1:-1]
    ascends[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(ascends.all())


def _as_label_list(names: Optional[Sequence[Hashable]]) -> Optional[list]:
    """``names`` as the list a hypergraph stores: adopted if already one."""
    if names is None or type(names) is list:
        return names
    return list(names)


class Hypergraph:
    """A non-uniform hypergraph stored as edge→vertex and vertex→edge CSR.

    Instances are immutable by convention: all transformations
    (preprocessing, relabelling, simplification, dualisation) return new
    objects.

    Parameters
    ----------
    edges:
        CSR with ``num_edges`` rows over ``num_vertices`` columns; row ``i``
        lists the vertices of hyperedge ``i``.
    vertices:
        Optional transpose (vertex→edge CSR).  Computed when omitted.
    edge_names, vertex_names:
        Optional sequences mapping internal integer IDs back to user-facing
        labels (author names, gene symbols, …).  A ``list`` is adopted as
        given — derived hypergraphs share their parent's labels instead of
        copying them — any other sequence is copied into one.
    """

    __slots__ = ("_edges", "_vertices", "_edge_names", "_vertex_names", "_fingerprint")

    def __init__(
        self,
        edges: CSRMatrix,
        vertices: Optional[CSRMatrix] = None,
        edge_names: Optional[Sequence[Hashable]] = None,
        vertex_names: Optional[Sequence[Hashable]] = None,
    ) -> None:
        if not isinstance(edges, CSRMatrix):
            raise ValidationError("edges must be a CSRMatrix")
        self._edges = edges
        if vertices is None:
            vertices = edges.transpose_fast()
        else:
            if vertices.shape != (edges.num_cols, edges.num_rows):
                raise ValidationError(
                    "vertices CSR must be the transpose shape of edges CSR: "
                    f"expected {(edges.num_cols, edges.num_rows)}, got {vertices.shape}"
                )
            if vertices.nnz != edges.nnz:
                raise ValidationError(
                    "vertices CSR must have the same number of incidences as edges CSR"
                )
        self._vertices = vertices
        if edge_names is not None and len(edge_names) != edges.num_rows:
            raise ValidationError("edge_names length must equal the number of hyperedges")
        if vertex_names is not None and len(vertex_names) != edges.num_cols:
            raise ValidationError("vertex_names length must equal the number of vertices")
        self._edge_names = _as_label_list(edge_names)
        self._vertex_names = _as_label_list(vertex_names)
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|`` (including isolated vertices)."""
        return self._edges.num_cols

    @property
    def num_edges(self) -> int:
        """Number of hyperedges ``|E|`` (including empty hyperedges)."""
        return self._edges.num_rows

    @property
    def num_incidences(self) -> int:
        """Number of (vertex, hyperedge) incidences — ``nnz`` of the incidence matrix."""
        return self._edges.nnz

    @property
    def edges_csr(self) -> CSRMatrix:
        """Edge→vertex CSR (row ``i`` = members of hyperedge ``i``)."""
        return self._edges

    @property
    def vertices_csr(self) -> CSRMatrix:
        """Vertex→edge CSR (row ``v`` = hyperedges containing vertex ``v``)."""
        return self._vertices

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #
    @property
    def edge_names(self) -> Optional[list]:
        """User-facing hyperedge labels, or ``None`` if unlabelled."""
        return self._edge_names

    @property
    def vertex_names(self) -> Optional[list]:
        """User-facing vertex labels, or ``None`` if unlabelled."""
        return self._vertex_names

    def edge_name(self, i: int) -> Hashable:
        """Label of hyperedge ``i`` (falls back to the integer ID)."""
        if self._edge_names is None:
            return i
        return self._edge_names[i]

    def vertex_name(self, v: int) -> Hashable:
        """Label of vertex ``v`` (falls back to the integer ID)."""
        if self._vertex_names is None:
            return v
        return self._vertex_names[v]

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def edge_members(self, i: int) -> np.ndarray:
        """Vertices of hyperedge ``i`` (sorted ``int64`` array view)."""
        return self._edges.row(i)

    def vertex_memberships(self, v: int) -> np.ndarray:
        """Hyperedges containing vertex ``v`` (sorted ``int64`` array view)."""
        return self._vertices.row(v)

    def edge_size(self, i: int) -> int:
        """``|e_i|`` — the number of vertices in hyperedge ``i``.

        The paper calls this the hyperedge *degree* when pruning
        (``degree[e_i] < s``), matching ``inc({e_i}) = |e_i|``.
        """
        return self._edges.row_degree(i)

    def vertex_degree(self, v: int) -> int:
        """``deg(v)`` — the number of hyperedges containing vertex ``v``."""
        return self._vertices.row_degree(v)

    def edge_sizes(self) -> np.ndarray:
        """Array of all hyperedge sizes ``|e_i|``."""
        return self._edges.row_degrees()

    def vertex_degrees(self) -> np.ndarray:
        """Array of all vertex degrees ``deg(v)``."""
        return self._vertices.row_degrees()

    def iter_edges(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(edge_id, member_vertex_array)`` for every hyperedge."""
        return self._edges.iter_rows()

    def edges_as_sets(self) -> list[frozenset[int]]:
        """Materialise every hyperedge as a frozenset of vertex IDs."""
        return self._edges.rows_as_sets()

    # ------------------------------------------------------------------ #
    # Pairwise structure functions (Section II-A of the paper)
    # ------------------------------------------------------------------ #
    def inc(self, e: int, f: int) -> int:
        """``inc(e, f) = |e ∩ f|`` — the number of shared vertices of two hyperedges."""
        a = self.edge_members(e)
        b = self.edge_members(f)
        return int(np.intersect1d(a, b, assume_unique=True).size)

    def adj(self, u: int, v: int) -> int:
        """``adj(u, v)`` — the number of hyperedges containing both vertices."""
        a = self.vertex_memberships(u)
        b = self.vertex_memberships(v)
        return int(np.intersect1d(a, b, assume_unique=True).size)

    def inc_set(self, edge_ids: Sequence[int]) -> int:
        """``inc(F) = |∩_{e∈F} e|`` for a set of hyperedges ``F`` (∞-free:
        empty F raises)."""
        ids = list(edge_ids)
        if not ids:
            raise ValidationError("inc_set requires at least one hyperedge")
        common = self.edge_members(ids[0])
        for e in ids[1:]:
            common = np.intersect1d(common, self.edge_members(e), assume_unique=True)
        return int(common.size)

    def adj_set(self, vertex_ids: Sequence[int]) -> int:
        """``adj(U) = |{e ⊇ U}|`` for a set of vertices ``U``."""
        ids = list(vertex_ids)
        if not ids:
            raise ValidationError("adj_set requires at least one vertex")
        common = self.vertex_memberships(ids[0])
        for v in ids[1:]:
            common = np.intersect1d(common, self.vertex_memberships(v), assume_unique=True)
        return int(common.size)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content hash of the incidence structure (hex SHA-256 digest).

        The hash covers the shape and the edge→vertex CSR with columns
        sorted within each row, so two hypergraphs with the same incidence
        pattern produce the same fingerprint regardless of how they were
        built or in what order rows listed their members.  Labels are
        ignored: the fingerprint identifies the *structure*, which is what
        every s-line-graph computation depends on.  Used as the cache key of
        :class:`repro.engine.QueryEngine`.  The digest is computed once and
        memoised (instances are immutable by convention).

        Rows whose members already ascend — every hypergraph the builders
        and the engine's incremental updates produce — are hashed as stored;
        only an input with an out-of-order row pays the per-row sort.
        """
        if self._fingerprint is None:
            edges = self._edges
            indices = edges.indices
            if not _rows_ascend(edges):
                row_ids = np.repeat(
                    np.arange(edges.num_rows, dtype=np.int64), edges.row_degrees()
                )
                indices = indices[np.lexsort((indices, row_ids))]
            hasher = hashlib.sha256()
            hasher.update(np.int64(edges.num_rows).tobytes())
            hasher.update(np.int64(edges.num_cols).tobytes())
            hasher.update(np.ascontiguousarray(edges.indptr, dtype=np.int64).tobytes())
            hasher.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #
    def dual(self) -> "Hypergraph":
        """The dual hypergraph ``H*`` (hyperedges become vertices and vice versa)."""
        return Hypergraph(
            edges=self._vertices.copy(),
            vertices=self._edges.copy(),
            edge_names=self._vertex_names,
            vertex_names=self._edge_names,
        )

    def incidence_matrix(self) -> sparse.csr_matrix:
        """The ``n × m`` boolean incidence matrix ``H`` (rows=vertices, cols=edges)."""
        # edges CSR is m × n (edge rows); H is defined n × m in the paper.
        return self._edges.to_scipy().T.tocsr()

    def to_bipartite(self):
        """The bipartite graph ``B(H)`` as a :mod:`networkx` graph.

        Vertices are labelled ``("v", id)`` and hyperedges ``("e", id)``.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from([("v", int(v)) for v in range(self.num_vertices)], bipartite=0)
        g.add_nodes_from([("e", int(e)) for e in range(self.num_edges)], bipartite=1)
        for e, members in self.iter_edges():
            g.add_edges_from((("e", int(e)), ("v", int(v))) for v in members)
        return g

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.num_edges == other.num_edges
            and self._edges.same_pattern(other._edges)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, num_incidences={self.num_incidences})"
        )

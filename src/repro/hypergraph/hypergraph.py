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


#: MurmurHash3's 64-bit finaliser constants.
_FMIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))
_SHIFT = np.uint64(33)
#: One seed per digest lane; four 64-bit lanes give a 256-bit sum.
_LANE_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
#: Incidences hashed per pass: the pass's two lane-major buffers (256 kB
#: each) stay in cache, and the temporaries stay that small however large
#: the hypergraph is.
_DIGEST_CHUNK = 1 << 13


def _fmix(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finaliser, in place (``scratch`` is a buffer of
    ``x``'s shape): a bijection of ``uint64`` that carries every input bit
    into every output bit."""
    for multiplier in _FMIX:
        np.right_shift(x, _SHIFT, out=scratch)
        x ^= scratch
        x *= multiplier
    np.right_shift(x, _SHIFT, out=scratch)
    x ^= scratch
    return x


def incidence_lanes(
    edge_ids: np.ndarray, degrees: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """The digest lanes of some hyperedges' incidences: per lane, the sum
    mod 2**64 of an element hash of every ``(edge id, vertex id)`` pair.

    ``members`` lists the vertices of ``edge_ids[0]`` (``degrees[0]`` of
    them), then of ``edge_ids[1]``, and so on — a CSR row range.  The
    element hash of lane ``k`` is ``fmix(fmix(edge ^ seed_k) + vertex)``:
    one mix per edge, one per incidence, vectorised lane-major in
    cache-sized passes.  Sums commute, so the lanes of a hypergraph are the
    sums of its rows' lanes in any order, and an update adds (or
    subtracts) the lanes of the one row it changes.
    """
    lanes = np.zeros(_LANE_SEEDS.size, dtype=np.uint64)
    edge_ids = np.asarray(edge_ids, dtype=np.int64).view(np.uint64)
    members = np.asarray(members, dtype=np.int64).view(np.uint64)
    if members.size == 0:
        return lanes
    per_edge = _LANE_SEEDS[:, None] ^ edge_ids
    _fmix(per_edge, np.empty_like(per_edge))
    owner = np.repeat(np.arange(edge_ids.size), degrees)
    width = min(members.size, _DIGEST_CHUNK)
    buffer = np.empty((lanes.size, width), dtype=np.uint64)
    scratch = np.empty_like(buffer)
    for start in range(0, members.size, width):
        stop = min(start + width, members.size)
        mixed, spare = buffer[:, : stop - start], scratch[:, : stop - start]
        np.take(per_edge, owner[start:stop], axis=1, out=mixed)
        mixed += members[start:stop]
        lanes += _fmix(mixed, spare).sum(axis=1, dtype=np.uint64)
    return lanes


def fingerprint_of(num_edges: int, num_vertices: int, lanes: np.ndarray) -> str:
    """The hex fingerprint of a shape and its incidence lanes (SHA-256 of
    both, so it stays a 64-character digest whatever the lanes hold)."""
    shape = np.array([num_edges, num_vertices], dtype="<i8")
    return hashlib.sha256(shape.tobytes() + lanes.astype("<u8").tobytes()).hexdigest()


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
    digest:
        The :meth:`digest_lanes` of ``edges`` when the caller already
        carries them (an overlay materialising its state); adopted
        unchecked, so the fingerprint is not recomputed from scratch.
    """

    __slots__ = (
        "_edges",
        "_vertices",
        "_edge_names",
        "_vertex_names",
        "_lanes",
        "_fingerprint",
    )

    def __init__(
        self,
        edges: CSRMatrix,
        vertices: Optional[CSRMatrix] = None,
        edge_names: Optional[Sequence[Hashable]] = None,
        vertex_names: Optional[Sequence[Hashable]] = None,
        *,
        digest: Optional[np.ndarray] = None,
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
        self._lanes: Optional[np.ndarray] = None
        if digest is not None:
            self._lanes = np.array(digest, dtype=np.uint64)
            self._lanes.setflags(write=False)
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
    def digest_lanes(self) -> np.ndarray:
        """The multiset digest behind :meth:`fingerprint`: four ``uint64``
        lanes, each the sum mod 2**64 of an element hash over every
        incidence (see :func:`incidence_lanes`).  Computed once, from
        scratch and vectorised, then memoised read-only."""
        if self._lanes is None:
            edges = self._edges
            lanes = incidence_lanes(
                np.arange(edges.num_rows), edges.row_degrees(), edges.indices
            )
            lanes.setflags(write=False)
            self._lanes = lanes
        return self._lanes

    def fingerprint(self) -> str:
        """Content hash of the incidence structure (64 hex characters).

        A multiset digest in the randomize-then-combine style of AdHash /
        MuHash (Bellare & Micciancio, 1997): every ``(edge id, vertex id)``
        incidence is mapped to four pseudo-random 64-bit lanes, the lanes
        are summed mod 2**64 over all incidences, and SHA-256 finalises the
        shape ``(num_edges, num_vertices)`` plus the four sums.  A sum does
        not depend on the order of its terms, so two hypergraphs with the
        same incidence pattern share a fingerprint however they were built
        or in whatever order their rows list members; and an update changes
        it by the lanes of the one row it touches, which is how
        :class:`repro.engine.QueryEngine` carries it in O(|e|) instead of
        rehashing the hypergraph.  Labels are ignored: the fingerprint
        identifies the *structure*, which is what every s-line-graph
        computation depends on.  It detects accidental divergence; it is not
        a security boundary.

        The value is part of the store format (manifests, WAL records and
        ``hypergraph.npz`` carry it): this definition is the one of
        :data:`repro.store.format.FORMAT_VERSION` 2.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_of(
                self.num_edges, self.num_vertices, self.digest_lanes()
            )
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

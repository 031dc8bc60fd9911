"""Result types for s-line-graph computations.

An *s-line graph* ``L_s(H) = <E_s, F>`` has one vertex per hyperedge of
``H`` with ``|e| >= s`` and an (undirected) edge ``{e_i, e_j}`` whenever the
two hyperedges share at least ``s`` vertices.  We keep the overlap count
``inc(e_i, e_j)`` as the edge weight (the paper's Figure 2 draws edge widths
proportional to it).

:class:`SLineGraph` stores the edge list in *original hyperedge IDs*; the ID
squeezing of Stage 4 and conversion to graph structures are offered as
methods so downstream s-metric code can operate on a compact graph while
still reporting results in terms of the original hyperedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.hypergraph.preprocessing import SqueezeResult
from repro.utils.validation import ValidationError, check_array_int, check_s_value


#: Largest ``bound`` whose packed keys ``lo * bound + hi`` (IDs in
#: ``[0, bound)``) stay below ``2**63``: ``isqrt(2**63 - 1)``.
_MAX_PACKED_BOUND = 3_037_000_499


def pair_order(pairs: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``(k, 2)`` int64 rows by (column 0, column 1).

    One stable sort of the int64 key ``lo * bound + hi``, so rows that tie
    keep their given order: timsort merges the already-sorted runs every
    producer hands over (shard weight classes, Stage 3's per-row output)
    instead of comparing two columns ``k log k`` times.
    """
    lo, hi = pairs[:, 0], pairs[:, 1]
    bound = int(pairs.max(initial=0)) + 1
    if bound > _MAX_PACKED_BOUND or int(pairs.min(initial=0)) < 0:
        # The key would not fit an int64, or an ID is negative (and about
        # to be rejected): the same permutation from the two-key sort.
        return np.lexsort((hi, lo))
    return np.argsort(lo * bound + hi, kind="stable")


def _normalise_edges(
    edges: np.ndarray | Sequence[Tuple[int, int]],
    weights: Optional[np.ndarray | Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalise an undirected edge list: (i, j) with i < j, sorted, deduplicated.

    Always returns fresh arrays, and pays only for what the rows need: the
    orientation copies when some row has ``i >= j``, the max-weight merge
    when a pair repeats.
    """
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("edges must be an array of shape (k, 2)")
    if weights is None:
        w = np.ones(arr.shape[0], dtype=np.int64)
    else:
        w = check_array_int(weights, "weights")
        if w.size != arr.shape[0]:
            raise ValidationError("weights length must equal the number of edges")
    if not np.all(arr[:, 0] < arr[:, 1]):
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        if np.any(lo == hi):
            raise ValidationError("self-loops are not allowed in an s-line graph")
        arr = np.column_stack([lo, hi])
    order = pair_order(arr)
    arr, w = arr.take(order, axis=0), w.take(order)
    repeat = (arr[1:, 0] == arr[:-1, 0]) & (arr[1:, 1] == arr[:-1, 1])
    if np.any(repeat):
        # Duplicate undirected edges: keep the maximum recorded weight.
        keep = np.concatenate([[True], ~repeat])
        group = np.cumsum(keep) - 1
        max_w = np.zeros(int(group[-1]) + 1, dtype=np.int64)
        np.maximum.at(max_w, group, w)
        arr, w = arr[keep], max_w
    return arr, w


@dataclass
class SLineGraph:
    """An s-line graph as an undirected, weighted edge list over hyperedge IDs.

    Attributes
    ----------
    s:
        The overlap threshold used to build this graph.
    edges:
        ``(k, 2)`` int64 array; each row ``(i, j)`` with ``i < j`` is an
        undirected edge between hyperedges ``i`` and ``j`` of the original
        hypergraph.
    weights:
        Length-``k`` int64 array of overlap counts ``inc(e_i, e_j) >= s``.
    num_hyperedges:
        Number of hyperedges in the source hypergraph (defines the un-squeezed
        vertex-ID space).
    active_vertices:
        IDs of hyperedges with ``|e| >= s`` — the vertex set ``E_s`` of the
        s-line graph (isolated vertices included).
    """

    s: int
    edges: np.ndarray
    weights: np.ndarray
    num_hyperedges: int
    active_vertices: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.s = check_s_value(self.s)
        self.edges, self.weights = _normalise_edges(self.edges, self.weights)
        if self.num_hyperedges < 0:
            raise ValidationError("num_hyperedges must be non-negative")
        if self.edges.size and int(self.edges.max()) >= self.num_hyperedges:
            raise ValidationError("edge endpoint exceeds num_hyperedges")
        if self.edges.size and int(self.edges.min()) < 0:
            raise ValidationError("edge endpoints must be non-negative")
        if self.weights.size and int(self.weights.min()) < self.s:
            raise ValidationError("all edge weights must be >= s")
        if self.active_vertices is not None:
            active = check_array_int(self.active_vertices, "active_vertices")
            # Sorted and unique already (an index hands over ``flatnonzero``
            # output): a copy, not ``np.unique``'s hash pass and sort.
            ascending = bool(np.all(active[1:] > active[:-1]))
            self.active_vertices = active.copy() if ascending else np.unique(active)
            if self.active_vertices.size and (
                int(self.active_vertices[0]) < 0
                or int(self.active_vertices[-1]) >= self.num_hyperedges
            ):
                raise ValidationError(
                    "active_vertices must lie in [0, num_hyperedges)"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_canonical(
        cls,
        s: int,
        edges: np.ndarray,
        weights: np.ndarray,
        num_hyperedges: int,
        active_vertices: Optional[np.ndarray] = None,
    ) -> "SLineGraph":
        """Adopt arrays already in canonical form, skipping ``__post_init__``.

        For callers holding exactly what ``__post_init__`` would
        re-establish — unique ``(i, j)`` rows with ``i < j`` in (lo, hi)
        order, every weight ``>= s``, sorted unique ``active_vertices`` —
        that must not pay a second normalisation pass.
        """
        graph = cls.__new__(cls)
        graph.s = int(s)
        graph.edges = edges
        graph.weights = weights
        graph.num_hyperedges = int(num_hyperedges)
        graph.active_vertices = active_vertices
        return graph

    @classmethod
    def from_weighted_pairs(
        cls,
        s: int,
        pairs: Iterable[Tuple[int, int, int]],
        num_hyperedges: int,
        active_vertices: Optional[np.ndarray] = None,
    ) -> "SLineGraph":
        """Build from an iterable of ``(i, j, overlap_count)`` triples."""
        pairs = list(pairs)
        if not pairs:
            return cls(
                s=s,
                edges=np.empty((0, 2), dtype=np.int64),
                weights=np.empty(0, dtype=np.int64),
                num_hyperedges=num_hyperedges,
                active_vertices=active_vertices,
            )
        # One flat pass over the triples: 2.4x faster than ``np.asarray`` of
        # the tuple list, which inspects every tuple as a sequence first.
        arr = np.fromiter(
            chain.from_iterable(pairs), dtype=np.int64, count=3 * len(pairs)
        ).reshape(-1, 3)
        return cls(
            s=s,
            edges=arr[:, :2],
            weights=arr[:, 2],
            num_hyperedges=num_hyperedges,
            active_vertices=active_vertices,
        )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of edges in the s-line graph."""
        return int(self.edges.shape[0])

    @property
    def vertex_ids(self) -> np.ndarray:
        """Hyperedge IDs that appear as endpoints of at least one edge."""
        if self.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.edges.ravel())

    @property
    def num_active_vertices(self) -> int:
        """Size of the vertex set ``E_s`` (falls back to non-isolated endpoints)."""
        if self.active_vertices is not None:
            return int(self.active_vertices.size)
        return int(self.vertex_ids.size)

    def degree_of(self, hyperedge_id: int) -> int:
        """Degree of a hyperedge in the s-line graph."""
        if self.num_edges == 0:
            return 0
        return int(np.count_nonzero(self.edges == hyperedge_id))

    def edge_set(self) -> set[Tuple[int, int]]:
        """The edge list as a set of ``(i, j)`` tuples with ``i < j``."""
        return {(int(i), int(j)) for i, j in self.edges}

    def weight_map(self) -> Dict[Tuple[int, int], int]:
        """Mapping ``(i, j) -> overlap count`` with ``i < j``."""
        return {
            (int(i), int(j)): int(w)
            for (i, j), w in zip(self.edges, self.weights)
        }

    # ------------------------------------------------------------------ #
    # Stage-4 squeezing and graph conversion
    # ------------------------------------------------------------------ #
    def squeeze(self) -> Tuple["SLineGraph", SqueezeResult]:
        """Remap the vertex IDs to a contiguous range (Stage 4 of the framework).

        Only edge endpoints are kept: hyperedges with no incident edges are
        dropped, as the paper drops hypersparse rows.

        Returns
        -------
        (squeezed_graph, squeeze_result):
            The squeezed :class:`SLineGraph` (IDs ``0..k-1``) and the ID
            mapping.
        """
        # One presence mask over the bounded ID space is the whole mapping:
        # its set positions are ``new_to_old`` and its prefix sum relabels.
        present = np.zeros(self.num_hyperedges, dtype=bool)
        present[self.edges] = True
        mapping = SqueezeResult(new_to_old=np.flatnonzero(present))
        old_to_new = np.cumsum(present, dtype=np.int64) - 1
        # A strictly increasing relabel keeps unique, pair-sorted ``i < j``
        # rows canonical, so nothing is normalised twice (the property
        # test in tests/properties/test_property_squeeze.py holds this).
        squeezed = SLineGraph.from_canonical(
            self.s,
            old_to_new[self.edges],
            self.weights,
            mapping.num_ids,
            np.arange(mapping.num_ids, dtype=np.int64),
        )
        return squeezed, mapping

    def translate_ids(self, new_to_old: np.ndarray, num_hyperedges: int) -> "SLineGraph":
        """This graph with every ID gathered through ``new_to_old`` into an ID
        space of ``num_hyperedges`` — :meth:`squeeze`'s relabel run backwards,
        undoing Stage-1 edge dropping and degree relabelling.

        The identity returns ``self``; a strictly increasing map keeps
        canonical rows canonical and is adopted as :meth:`squeeze` adopts
        its own; only a real permutation pays the constructor's passes.
        """
        if num_hyperedges == self.num_hyperedges and np.array_equal(
            new_to_old, np.arange(num_hyperedges)
        ):
            return self
        build = (
            SLineGraph.from_canonical
            if np.all(new_to_old[1:] > new_to_old[:-1])
            else SLineGraph
        )
        return build(
            self.s,
            new_to_old[self.edges],
            self.weights,
            num_hyperedges,
            None if self.active_vertices is None else new_to_old[self.active_vertices],
        )

    def adjacency_matrix(
        self, squeezed: bool = False, weighted: bool = False
    ) -> sparse.csr_matrix:
        """The symmetric adjacency matrix of the s-line graph.

        Parameters
        ----------
        squeezed:
            When True, the matrix is over the compact ID space returned by
            :meth:`squeeze`; otherwise over ``num_hyperedges`` IDs.
        weighted:
            When True entries hold the overlap counts, otherwise 1.
        """
        if squeezed:
            graph, _ = self.squeeze()
            return graph.adjacency_matrix(squeezed=False, weighted=weighted)
        n = self.num_hyperedges
        vals = self.weights if weighted else np.ones(self.num_edges, dtype=np.int64)
        i, j = self.edges[:, 0], self.edges[:, 1]
        # Lower triangle first: coo→csr fills each row in entry order, and on
        # canonical pairs row r then receives its columns < r ascending
        # followed by its columns > r ascending — sorted as it lands, so
        # neither ``tocsr`` nor ``Graph.from_symmetric_csr`` has a row to sort.
        mat = sparse.coo_matrix(
            (np.concatenate([vals, vals]), (np.concatenate([j, i]), np.concatenate([i, j]))),
            shape=(n, n),
        )
        return mat.tocsr()

    def to_graph(self, squeezed: bool = True):
        """Convert to a :class:`repro.graph.Graph` (CSR graph substrate)."""
        from repro.graph.graph import Graph

        source, mapping = self.squeeze() if squeezed else (self, None)
        graph = Graph.from_symmetric_csr(source.adjacency_matrix(weighted=True))
        graph.metadata["s"] = self.s
        if mapping is not None:
            graph.metadata["squeeze"] = mapping
        return graph

    def to_networkx(self, use_original_ids: bool = True):
        """Convert to a weighted :mod:`networkx` graph (edge attribute ``weight``)."""
        import networkx as nx

        g = nx.Graph(s=self.s)
        if use_original_ids and self.active_vertices is not None:
            g.add_nodes_from(int(v) for v in self.active_vertices)
        for (i, j), w in zip(self.edges, self.weights):
            g.add_edge(int(i), int(j), weight=int(w))
        return g

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SLineGraph):
            return NotImplemented
        return (
            self.s == other.s
            and self.num_hyperedges == other.num_hyperedges
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SLineGraph(s={self.s}, num_edges={self.num_edges}, "
            f"num_hyperedges={self.num_hyperedges})"
        )


@dataclass
class SLineGraphEnsemble:
    """A family of s-line graphs computed from a single overlap-counting pass.

    Produced by Algorithm 3; indexable by ``s``.
    """

    graphs: Dict[int, SLineGraph] = field(default_factory=dict)

    def __getitem__(self, s: int) -> SLineGraph:
        return self.graphs[int(s)]

    def __contains__(self, s: int) -> bool:
        return int(s) in self.graphs

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def s_values(self) -> List[int]:
        """The sorted list of s values in the ensemble."""
        return sorted(self.graphs)

    def edge_counts(self) -> Dict[int, int]:
        """Mapping ``s -> number of edges`` (the quantity plotted in Figure 4)."""
        return {s: self.graphs[s].num_edges for s in self.s_values}

    def items(self):
        """Iterate ``(s, SLineGraph)`` pairs in increasing s."""
        for s in self.s_values:
            yield s, self.graphs[s]

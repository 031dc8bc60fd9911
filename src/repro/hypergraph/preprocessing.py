"""Stage-1 preprocessing and Stage-4 ID squeezing of the paper's framework.

Stage 1 removes isolated vertices and empty hyperedges and (optionally)
relabels hyperedge IDs by degree ("relabel-by-degree"), which the paper shows
improves both load balance and cache reuse for skew-degree inputs when
combined with upper-triangular wedge traversal.

Stage 4 ("ID squeezing") remaps the hypersparse vertex-ID space of a computed
s-line graph to a contiguous range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.utils.validation import ValidationError, check_array_int

RelabelOrder = Literal["ascending", "descending", "none"]


@dataclass
class RelabelResult:
    """Outcome of relabelling hyperedges by degree.

    Attributes
    ----------
    hypergraph:
        The relabelled hypergraph (new edge ID ``i`` is old edge
        ``new_to_old[i]``).
    new_to_old:
        Permutation array mapping new IDs to original IDs.
    old_to_new:
        Inverse permutation.
    order:
        The requested ordering ("ascending", "descending" or "none").
    """

    hypergraph: Hypergraph
    new_to_old: np.ndarray
    old_to_new: np.ndarray
    order: RelabelOrder = "none"

    def map_edge_to_original(self, new_id: int) -> int:
        """Translate a relabelled hyperedge ID back to the original ID."""
        return int(self.new_to_old[new_id])


@dataclass
class SqueezeResult:
    """Outcome of squeezing a sparse ID space to a contiguous range.

    ``new_to_old`` is sorted and duplicate-free — squeezed ID ``i`` stands
    for original ID ``new_to_old[i]`` — so the relabel is strictly
    increasing and the one array serves both directions.
    """

    new_to_old: np.ndarray

    @property
    def num_ids(self) -> int:
        """Number of distinct IDs retained."""
        return int(self.new_to_old.size)

    def to_original(self, new_id: int) -> int:
        """Original ID for a squeezed ID."""
        return int(self.new_to_old[new_id])

    def to_squeezed(self, old_id: int) -> int:
        """Squeezed ID for an original ID (KeyError if the ID was dropped)."""
        old_id = int(old_id)
        new_id = int(np.searchsorted(self.new_to_old, old_id))
        if new_id == self.num_ids or self.new_to_old[new_id] != old_id:
            raise KeyError(old_id)
        return new_id

    def columns(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Re-key an array over squeezed IDs by original ID.

        Returns parallel ``(ids int64, values float64)`` columns, ascending
        by original ID because ``new_to_old`` is.
        """
        return self.new_to_old, np.asarray(values, dtype=np.float64)

    def by_hyperedge(self, values: np.ndarray) -> Dict[int, float]:
        """:meth:`columns` as an ``{original ID: value}`` dict."""
        ids, column = self.columns(values)
        return dict(zip(ids.tolist(), column.tolist()))


@dataclass
class PreprocessResult:
    """Outcome of Stage-1 preprocessing."""

    hypergraph: Hypergraph
    removed_empty_edges: int
    removed_isolated_vertices: int
    relabel: Optional[RelabelResult] = None
    kept_edge_ids: Optional[np.ndarray] = None
    kept_vertex_ids: Optional[np.ndarray] = None


def remove_empty_edges(h: Hypergraph) -> Tuple[Hypergraph, np.ndarray]:
    """Drop hyperedges with no members; returns ``(new_h, kept_edge_ids)``."""
    sizes = h.edge_sizes()
    keep = np.flatnonzero(sizes > 0).astype(np.int64)
    if keep.size == h.num_edges:
        return h, keep
    rows: list[int] = []
    cols: list[int] = []
    for new_id, old_id in enumerate(keep):
        members = h.edge_members(int(old_id))
        rows.extend([new_id] * members.size)
        cols.extend(int(v) for v in members)
    edges = CSRMatrix.from_pairs(rows, cols, num_rows=keep.size, num_cols=h.num_vertices)
    edge_names = None
    if h.edge_names is not None:
        edge_names = [h.edge_names[int(e)] for e in keep]
    return (
        Hypergraph(edges=edges, edge_names=edge_names, vertex_names=h.vertex_names),
        keep,
    )


def remove_isolated_vertices(h: Hypergraph) -> Tuple[Hypergraph, np.ndarray]:
    """Drop vertices belonging to no hyperedge; returns ``(new_h, kept_vertex_ids)``."""
    degrees = h.vertex_degrees()
    keep = np.flatnonzero(degrees > 0).astype(np.int64)
    if keep.size == h.num_vertices:
        return h, keep
    old_to_new = -np.ones(h.num_vertices, dtype=np.int64)
    old_to_new[keep] = np.arange(keep.size, dtype=np.int64)
    rows: list[int] = []
    cols: list[int] = []
    for e, members in h.iter_edges():
        rows.extend([e] * members.size)
        cols.extend(int(old_to_new[v]) for v in members)
    edges = CSRMatrix.from_pairs(rows, cols, num_rows=h.num_edges, num_cols=keep.size)
    vertex_names = None
    if h.vertex_names is not None:
        vertex_names = [h.vertex_names[int(v)] for v in keep]
    return (
        Hypergraph(edges=edges, edge_names=h.edge_names, vertex_names=vertex_names),
        keep,
    )


def relabel_edges_by_degree(
    h: Hypergraph, order: RelabelOrder = "ascending"
) -> RelabelResult:
    """Permute hyperedge IDs so edge sizes are sorted in the requested order.

    The paper's relabel-by-degree optimisation: with ascending order and
    upper-triangular wedge traversal (``j > i``), the inner loops of the
    hashmap algorithm touch progressively smaller neighbourhoods, improving
    both load balance and last-level-cache reuse.  Ties are broken by the
    original ID so the permutation is deterministic.
    """
    if order == "none":
        identity = np.arange(h.num_edges, dtype=np.int64)
        return RelabelResult(
            hypergraph=h, new_to_old=identity, old_to_new=identity.copy(), order=order
        )
    if order not in ("ascending", "descending"):
        raise ValidationError(f"unknown relabel order: {order!r}")
    sizes = h.edge_sizes()
    key = sizes if order == "ascending" else -sizes
    # stable sort → ties broken by original ID
    new_to_old = np.argsort(key, kind="stable").astype(np.int64)
    old_to_new = np.empty_like(new_to_old)
    old_to_new[new_to_old] = np.arange(h.num_edges, dtype=np.int64)
    edges = h.edges_csr.permute_rows(new_to_old)
    edge_names = None
    if h.edge_names is not None:
        edge_names = [h.edge_names[int(e)] for e in new_to_old]
    relabelled = Hypergraph(edges=edges, edge_names=edge_names, vertex_names=h.vertex_names)
    return RelabelResult(
        hypergraph=relabelled, new_to_old=new_to_old, old_to_new=old_to_new, order=order
    )


def squeeze_ids(ids: Sequence[int] | np.ndarray) -> SqueezeResult:
    """Map the distinct values of ``ids`` to ``0..k-1`` preserving order.

    This is Stage 4 of the framework: after s-overlap filtering, the s-line
    graph usually uses only a small subset of the hyperedge-ID space, so IDs
    are compacted before building adjacency structures.
    """
    arr = check_array_int(np.asarray(ids).ravel(), "ids")
    return SqueezeResult(new_to_old=np.unique(arr).astype(np.int64))


def preprocess(
    h: Hypergraph,
    relabel: RelabelOrder = "none",
    drop_empty_edges: bool = True,
    drop_isolated_vertices: bool = True,
) -> PreprocessResult:
    """Run the full Stage-1 preprocessing pipeline.

    Parameters
    ----------
    h:
        Input hypergraph.
    relabel:
        Hyperedge relabel-by-degree order ("ascending", "descending", "none").
    drop_empty_edges, drop_isolated_vertices:
        Whether to remove degenerate elements before relabelling.
    """
    original_edges = h.num_edges
    original_vertices = h.num_vertices
    kept_edges = np.arange(h.num_edges, dtype=np.int64)
    kept_vertices = np.arange(h.num_vertices, dtype=np.int64)
    if drop_empty_edges:
        h, kept_edges = remove_empty_edges(h)
    if drop_isolated_vertices:
        h, kept_vertices = remove_isolated_vertices(h)
    relabel_result = relabel_edges_by_degree(h, relabel) if relabel != "none" else None
    if relabel_result is not None:
        h = relabel_result.hypergraph
    return PreprocessResult(
        hypergraph=h,
        removed_empty_edges=original_edges - kept_edges.size,
        removed_isolated_vertices=original_vertices - kept_vertices.size,
        relabel=relabel_result,
        kept_edge_ids=kept_edges,
        kept_vertex_ids=kept_vertices,
    )

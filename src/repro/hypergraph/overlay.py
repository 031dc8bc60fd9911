"""An updatable hypergraph: a frozen :class:`Hypergraph` plus its updates.

:class:`OverlayHypergraph` is the shape the sharded index's WAL overlay
has, applied to the hypergraph itself: a frozen base, the rows appended
since, tombstones for the rows removed since, and, for each vertex an
update touched, its current list of hyperedges.  An add or a remove costs
the members it names — the overlay's lists, the vertex rows of those
members, and the fingerprint's digest lanes (carried, see
:meth:`Hypergraph.fingerprint`) — and never a copy of the incidence arrays.

Only a reader that needs the whole CSR pays for it:
:meth:`~OverlayHypergraph.materialise` builds it in one step with
:func:`replay_rows`, the same replay a store runs over its logged updates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph, fingerprint_of, incidence_lanes

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def replay_rows(
    h: Hypergraph,
    rows: Sequence[np.ndarray],
    names: Sequence[Optional[Hashable]],
    removed: Sequence[int],
    digest: Optional[np.ndarray] = None,
) -> Hypergraph:
    """``h`` with ``rows`` appended and the hyperedges ``removed`` emptied.

    Built in one step: every appended member list joins the incidence array
    in one concatenation and every removed row is cut with one mask, so the
    result pays for a single :class:`Hypergraph` construction (one
    transpose) however many updates it holds.  ``names[i]`` labels
    ``rows[i]`` when ``h`` is labelled (``None`` labels a row by its ID,
    as a string);
    ``removed`` may name appended rows too.  ``digest`` is the result's
    :meth:`~Hypergraph.digest_lanes` when the caller carries them.
    """
    if not rows and not len(removed):
        return h
    edges = h.edges_csr
    indices = np.concatenate([edges.indices, *rows])
    degrees = np.concatenate(
        [edges.row_degrees(), np.asarray([row.size for row in rows], dtype=np.int64)]
    )
    num_vertices = edges.num_cols
    if indices.size:
        num_vertices = max(num_vertices, int(indices.max()) + 1)
    if len(removed):
        starts = np.concatenate([[0], np.cumsum(degrees)])
        keep = np.ones(indices.size, dtype=bool)
        for edge_id in removed:
            keep[starts[edge_id] : starts[edge_id + 1]] = False
        indices = indices[keep]
        degrees[np.asarray(removed, dtype=np.int64)] = 0
    # A row or vertex without a label is named by its ID as a string: the
    # form a store's snapshot and log hold, so a reopen serves the same.
    edge_names = h.edge_names
    if edge_names is not None:
        edge_names = edge_names + [
            str(h.num_edges + i) if name is None else name for i, name in enumerate(names)
        ]
    vertex_names = h.vertex_names
    if vertex_names is not None:
        vertex_names = vertex_names + [str(v) for v in range(h.num_vertices, num_vertices)]
    return Hypergraph(
        edges=CSRMatrix(
            indptr=np.concatenate([[0], np.cumsum(degrees)]),
            indices=indices,
            num_cols=num_vertices,
        ),
        edge_names=edge_names,
        vertex_names=vertex_names,
        digest=digest,
    )


class OverlayHypergraph:
    """A frozen :class:`Hypergraph` plus the adds and removes applied since.

    Answers the reads an update needs — :attr:`num_edges`,
    :attr:`num_vertices`, :meth:`edge_size`, :meth:`edge_members`,
    :meth:`vertex_memberships` (the wedge walk of
    :func:`~repro.engine.index.overlap_counts_for_members`) and
    :meth:`fingerprint` — from the overlay directly, each in O(1) or
    O(the row it returns).  Mutated in place by the one writer; a reader
    that needs the whole CSR calls :meth:`materialise`.
    """

    __slots__ = (
        "_base",
        "_rows",
        "_names",
        "_tombstones",
        "_memberships",
        "_num_vertices",
        "_lanes",
        "_fingerprint",
        "_whole",
    )

    def __init__(self, base: Hypergraph) -> None:
        self._base = base
        #: Appended rows (sorted members), in ID order; kept when removed, as
        #: in a log, so a replay sees every vertex ID an update introduced.
        self._rows: List[np.ndarray] = []
        self._names: List[Optional[Hashable]] = []
        #: Removed hyperedges, base or appended.
        self._tombstones: set = set()
        #: Current hyperedge list of every vertex an update touched.
        self._memberships: Dict[int, np.ndarray] = {}
        self._num_vertices = base.num_vertices
        self._lanes = base.digest_lanes().copy()
        self._fingerprint = base.fingerprint()
        #: The materialised hypergraph, until the next update.
        self._whole: Optional[Hypergraph] = base

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return self._base.num_edges + len(self._rows)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    def edge_members(self, i: int) -> np.ndarray:
        """Vertices of hyperedge ``i`` (sorted; empty once removed)."""
        if i in self._tombstones:
            return _EMPTY
        base_edges = self._base.num_edges
        if i >= base_edges:
            return self._rows[i - base_edges]
        return self._base.edge_members(i)

    def edge_size(self, i: int) -> int:
        return int(self.edge_members(i).size)

    def vertex_memberships(self, v: int) -> np.ndarray:
        """Live hyperedges containing vertex ``v`` (sorted)."""
        row = self._memberships.get(v)
        if row is not None:
            return row
        if v < self._base.num_vertices:
            return self._base.vertex_memberships(v)
        return _EMPTY

    def fingerprint(self) -> str:
        """:meth:`Hypergraph.fingerprint` of the current state (carried)."""
        return self._fingerprint

    def materialise(self) -> Hypergraph:
        """The current state as one :class:`Hypergraph` (built once per
        state, with :func:`replay_rows`, its digest carried over)."""
        whole = self._whole
        if whole is None:
            whole = replay_rows(
                self._base,
                self._rows,
                self._names,
                sorted(self._tombstones),
                digest=self._lanes,
            )
            self._whole = whole
        return whole

    # ------------------------------------------------------------------ #
    # Updates (the one writer's)
    # ------------------------------------------------------------------ #
    def append(self, members: np.ndarray, name: Optional[Hashable] = None) -> None:
        """Append a hyperedge of sorted, distinct ``members`` (ID
        :attr:`num_edges`)."""
        new_id = self.num_edges
        self._rows.append(members)
        self._names.append(name)
        for v in members.tolist():
            self._memberships[v] = np.append(self.vertex_memberships(v), new_id)
        if members.size:
            self._num_vertices = max(self._num_vertices, int(members[-1]) + 1)
        self._lanes += incidence_lanes([new_id], [members.size], members)
        self._changed()

    def empty(self, edge_id: int) -> None:
        """Remove hyperedge ``edge_id``'s members (its ID slot stays)."""
        members = self.edge_members(edge_id)
        for v in members.tolist():
            row = self.vertex_memberships(v)
            self._memberships[v] = row[row != edge_id]
        self._tombstones.add(edge_id)
        self._lanes -= incidence_lanes([edge_id], [members.size], members)
        self._changed()

    def _changed(self) -> None:
        self._fingerprint = fingerprint_of(
            self.num_edges, self._num_vertices, self._lanes
        )
        self._whole = None

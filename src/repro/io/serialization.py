"""Binary round-trip of hypergraphs and s-line graphs via ``numpy.savez``.

Labels (edge/vertex names) are stored as JSON strings inside the ``.npz``
archive so the round trip preserves application metadata (gene symbols,
author names, …).  The archive also records the structural
:meth:`~repro.hypergraph.Hypergraph.fingerprint` of the saved hypergraph;
loading verifies the rebuilt structure hashes to the same value, so a
corrupted or hand-edited file cannot silently impersonate the original —
the same guarantee the persistent index store's manifest validation relies
on.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Union

import numpy as np

from repro.core.slinegraph import SLineGraph
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.utils.validation import ValidationError

PathLike = Union[str, os.PathLike]


def save_hypergraph_npz(h: Hypergraph, path: PathLike) -> None:
    """Save a hypergraph (CSR arrays, optional labels, fingerprint) to ``path``.

    The archive is written uncompressed: a store rewrites this copy on
    every compaction and ships it to every mirror, and deflating it cost
    more time than its bytes saved.  :func:`load_hypergraph_npz` reads
    stored and deflated archives alike.
    """
    payload = {
        "indptr": h.edges_csr.indptr,
        "indices": h.edges_csr.indices,
        "num_vertices": np.asarray([h.num_vertices], dtype=np.int64),
        "fingerprint": np.asarray([h.fingerprint()]),
    }
    if h.edge_names is not None:
        payload["edge_names"] = np.asarray([json.dumps(list(map(str, h.edge_names)))])
    if h.vertex_names is not None:
        payload["vertex_names"] = np.asarray([json.dumps(list(map(str, h.vertex_names)))])
    np.savez(str(path), **payload)


def load_hypergraph_npz(path: PathLike, verify_fingerprint: bool = True) -> Hypergraph:
    """Load a hypergraph previously written by :func:`save_hypergraph_npz`.

    When the archive carries a fingerprint (all archives written since the
    store subsystem do) the rebuilt hypergraph is re-hashed and compared;
    a mismatch raises :class:`ValidationError`.  Pass
    ``verify_fingerprint=False`` to skip the check (e.g. when salvaging a
    damaged file).
    """
    with np.load(str(path), allow_pickle=False) as data:
        edges = CSRMatrix(
            indptr=data["indptr"],
            indices=data["indices"],
            num_cols=int(data["num_vertices"][0]),
        )
        edge_names = (
            json.loads(str(data["edge_names"][0])) if "edge_names" in data else None
        )
        vertex_names = (
            json.loads(str(data["vertex_names"][0])) if "vertex_names" in data else None
        )
        saved_fp = str(data["fingerprint"][0]) if "fingerprint" in data else None
    h = Hypergraph(edges=edges, edge_names=edge_names, vertex_names=vertex_names)
    if verify_fingerprint and saved_fp is not None and h.fingerprint() != saved_fp:
        raise ValidationError(
            f"hypergraph loaded from {path} hashes to {h.fingerprint()[:12]}… "
            f"but the archive recorded {saved_fp[:12]}… (file corrupted or "
            "tampered with)"
        )
    return h


def peek_hypergraph_fingerprint(path: PathLike) -> Optional[str]:
    """The fingerprint recorded in a saved archive, without rebuilding it.

    Returns ``None`` for archives written before fingerprints were stored.
    """
    with np.load(str(path), allow_pickle=False) as data:
        if "fingerprint" not in data:
            return None
        return str(data["fingerprint"][0])


def save_slinegraph_npz(graph: SLineGraph, path: PathLike) -> None:
    """Save an s-line graph (edge list, weights, metadata) to ``path`` (.npz)."""
    payload = {
        "s": np.asarray([graph.s], dtype=np.int64),
        "edges": graph.edges,
        "weights": graph.weights,
        "num_hyperedges": np.asarray([graph.num_hyperedges], dtype=np.int64),
    }
    if graph.active_vertices is not None:
        payload["active_vertices"] = graph.active_vertices
    np.savez_compressed(str(path), **payload)


def load_slinegraph_npz(path: PathLike) -> SLineGraph:
    """Load an s-line graph previously written by :func:`save_slinegraph_npz`."""
    with np.load(str(path), allow_pickle=False) as data:
        return SLineGraph(
            s=int(data["s"][0]),
            edges=data["edges"],
            weights=data["weights"],
            num_hyperedges=int(data["num_hyperedges"][0]),
            active_vertices=data["active_vertices"] if "active_vertices" in data else None,
        )

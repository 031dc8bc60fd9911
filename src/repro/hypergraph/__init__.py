"""Hypergraph substrate: storage, construction, duals, properties, preprocessing.

The central type is :class:`repro.hypergraph.Hypergraph`, a non-uniform
hypergraph stored as a pair of CSR adjacency structures (edge→vertex and
vertex→edge, i.e. the incidence matrix ``H`` and its transpose ``H^T``),
matching the representation used by the paper's C++ framework (NWHypergraph).
"""

from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.builders import (
    hypergraph_from_edge_dict,
    hypergraph_from_edge_lists,
    hypergraph_from_incidence_pairs,
    hypergraph_from_incidence_matrix,
    hypergraph_from_bipartite,
)
from repro.hypergraph.dual import dual_hypergraph
from repro.hypergraph.properties import HypergraphStats, compute_stats
from repro.hypergraph.toplexes import toplexes, simplify
from repro.hypergraph.preprocessing import (
    remove_empty_edges,
    remove_isolated_vertices,
    relabel_edges_by_degree,
    squeeze_ids,
    preprocess,
    PreprocessResult,
    RelabelResult,
    SqueezeResult,
)
from repro.hypergraph.incidence import incidence_matrix, from_incidence

__all__ = [
    "CSRMatrix",
    "Hypergraph",
    "hypergraph_from_edge_dict",
    "hypergraph_from_edge_lists",
    "hypergraph_from_incidence_pairs",
    "hypergraph_from_incidence_matrix",
    "hypergraph_from_bipartite",
    "dual_hypergraph",
    "HypergraphStats",
    "compute_stats",
    "toplexes",
    "simplify",
    "remove_empty_edges",
    "remove_isolated_vertices",
    "relabel_edges_by_degree",
    "squeeze_ids",
    "preprocess",
    "PreprocessResult",
    "RelabelResult",
    "SqueezeResult",
    "incidence_matrix",
    "from_incidence",
]

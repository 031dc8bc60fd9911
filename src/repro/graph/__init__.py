"""Graph substrate: CSR graphs and the standard algorithms applied to s-line graphs.

Once an s-line graph is built (Stage 3/4 of the framework), the paper's
Stage 5 runs ordinary graph analytics on it: connected components (both
BFS-based and label-propagation, the latter matching the paper's LPCC
experiments), betweenness centrality, PageRank, distances and spectral
measures, on a compact CSR graph type.

Three kernels are library-backed — scipy (already a dependency) returns the
same arrays bit for bit from compiled code: CSR construction (one
``scipy.sparse`` coo→csr conversion adopted by
:meth:`Graph.from_symmetric_csr`), :func:`connected_components` and
:func:`bfs_distances` (``scipy.sparse.csgraph``), and through those two
eccentricity, closeness and diameter.  The rest is written from scratch:
:func:`label_propagation_components` is the kernel the paper's Table V
times and, with :func:`union_find_components` and :func:`bfs_tree`, the
independent implementation the tests hold the library-backed kernels to;
Brandes betweenness and PageRank have no library call that reproduces
their outputs bit for bit.  :mod:`networkx` is used only as a correctness
oracle in the test suite.
"""

from repro.graph.graph import Graph
from repro.graph.bfs import bfs_distances, bfs_tree
from repro.graph.connected_components import (
    connected_components,
    label_propagation_components,
    component_sizes,
    num_components,
)
from repro.graph.betweenness import betweenness_centrality
from repro.graph.pagerank import pagerank
from repro.graph.distance import eccentricity, diameter, closeness_centrality
from repro.graph.conversion import to_networkx, from_networkx
from repro.graph.union_find import DisjointSet, union_find_components

__all__ = [
    "DisjointSet",
    "union_find_components",
    "Graph",
    "bfs_distances",
    "bfs_tree",
    "connected_components",
    "label_propagation_components",
    "component_sizes",
    "num_components",
    "betweenness_centrality",
    "pagerank",
    "eccentricity",
    "diameter",
    "closeness_centrality",
    "to_networkx",
    "from_networkx",
]

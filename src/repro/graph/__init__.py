"""Graph substrate: CSR graphs and the standard algorithms applied to s-line graphs.

Once an s-line graph is built (Stage 3/4 of the framework), the paper's
Stage 5 runs ordinary graph analytics on it: connected components (both
BFS-based and label-propagation, the latter matching the paper's LPCC
experiments), betweenness centrality, PageRank, distances and spectral
measures, on a compact CSR graph type.

Every kernel is built from scipy and numpy array operations, one
implementation per traversal: CSR construction is one ``scipy.sparse``
coo→csr conversion whose arrays the :class:`Graph` constructor adopts
(int32 columns; the pattern alone unless weights are given);
:func:`connected_components` and :func:`bfs_distances` are
``scipy.sparse.csgraph`` calls; eccentricity, closeness and diameter reduce
``csgraph`` hop distances a block of sources at a time; Brandes betweenness
runs its forward and backward passes as sparse × dense products over the
same source blocks; :func:`label_propagation_components` (the kernel the
paper's Table V times) is one ``np.minimum.reduceat`` per round; PageRank is
a power iteration.  Nothing hand-written serves as a reference:
:mod:`networkx` is the only correctness oracle, and only the tests use it as one.
"""

from repro.graph.graph import Graph
from repro.graph.bfs import bfs_distances
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

__all__ = [
    "Graph",
    "bfs_distances",
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

"""Graph substrate: CSR graphs and the standard algorithms applied to s-line graphs.

Once an s-line graph is built (Stage 3/4 of the framework), the paper's
Stage 5 runs ordinary graph analytics on it: connected components (both
BFS-based and label-propagation, the latter matching the paper's LPCC
experiments), betweenness centrality, PageRank, distances and spectral
measures, on a compact CSR graph type.

Every kernel is built from scipy and numpy array operations, one
implementation per traversal.  A :class:`Graph` is the pattern of a
symmetric CSR (int32 columns, no weights: every Stage 5 measure counts
hops).  :func:`connected_components` is one ``scipy.sparse.csgraph`` call.
Every BFS — :func:`bfs_distances`, eccentricity, closeness, diameter and
Brandes betweenness's forward pass — is the one level loop
:func:`repro.graph.bfs.levels`, a sparse × dense product per level over a
block of sources; betweenness adds its backward pass over the same levels.
:func:`label_propagation_components` (the kernel the paper's Table V times)
is one ``np.minimum.reduceat`` per round; PageRank is a power iteration.
Nothing hand-written serves as a reference: :mod:`networkx` is the only
correctness oracle, and only the tests use it as one.
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
]

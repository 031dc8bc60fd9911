"""s-measures of hypergraphs, computed through their s-line graphs.

Aksoy et al. define hypergraph analogues of classical graph measures in
terms of s-walks; all of them reduce to ordinary graph measures on the
s-line graph (Section II-B of the paper).  This subpackage provides the
user-facing functions that take a hypergraph and an ``s`` value, build the
s-line graph internally (or reuse the one passed as ``line_graph``, which is
how a caller picks the Stage-3 kernel) and report the measure keyed by the
original hyperedge IDs.
"""

from repro.smetrics.connected import (
    s_connected_components,
    s_component_labels,
    num_s_connected_components,
)
from repro.smetrics.centrality import (
    s_betweenness_centrality,
    s_closeness_centrality,
    s_eccentricity,
    s_pagerank,
)
from repro.smetrics.distance import s_distance, s_diameter
from repro.smetrics.spectral import s_normalized_algebraic_connectivity
from repro.smetrics.walks import (
    is_s_walk,
    is_s_path,
    shortest_s_path,
    s_reachable_set,
)

__all__ = [
    "is_s_walk",
    "is_s_path",
    "shortest_s_path",
    "s_reachable_set",
    "s_connected_components",
    "s_component_labels",
    "num_s_connected_components",
    "s_betweenness_centrality",
    "s_closeness_centrality",
    "s_eccentricity",
    "s_pagerank",
    "s_distance",
    "s_diameter",
    "s_normalized_algebraic_connectivity",
]

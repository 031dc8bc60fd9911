"""s-distance and s-diameter of a hypergraph.

The s-distance between two hyperedges is the length of the shortest s-walk
between them, i.e. the hop distance between the corresponding vertices of
the s-line graph; the s-diameter is the largest finite s-distance.
"""

from __future__ import annotations

from typing import Optional

from repro.core.slinegraph import SLineGraph
from repro.graph.bfs import bfs_distances
from repro.graph.distance import diameter as graph_diameter
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.base import line_graph_and_mapping
from repro.utils.validation import ValidationError

#: Returned when two hyperedges are not s-connected.
INF_DISTANCE = -1


def s_distance(
    h: Hypergraph,
    e: int,
    f: int,
    s: int,
    line_graph: Optional[SLineGraph] = None,
) -> int:
    """Shortest s-walk length between hyperedges ``e`` and ``f`` (−1 if none).

    Both hyperedges must belong to ``E_s`` (size ``>= s``); otherwise a
    :class:`ValidationError` is raised, because the distance is undefined.
    """
    if h.edge_size(e) < s or h.edge_size(f) < s:
        raise ValidationError(
            f"hyperedges {e} and {f} must both have at least s={s} vertices"
        )
    if e == f:
        return 0
    graph, mapping, _ = line_graph_and_mapping(h, s, line_graph)
    try:
        src = mapping.to_squeezed(e)
        dst = mapping.to_squeezed(f)
    except KeyError:  # e or f has no s-incident partner
        return INF_DISTANCE
    dist = bfs_distances(graph, src)
    return int(dist[dst])


def s_diameter(h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None) -> int:
    """Largest finite s-distance over all hyperedge pairs (0 for an empty graph)."""
    graph, _, _ = line_graph_and_mapping(h, s, line_graph)
    if graph.num_vertices == 0:
        return 0
    return graph_diameter(graph)

"""s-centrality measures of hyperedges.

The s-betweenness centrality of a hyperedge ``e`` (Section II-B of the
paper) counts the fraction of shortest s-walks between other hyperedge
pairs that pass through ``e`` — i.e. the betweenness centrality of ``e`` in
the s-line graph.  The same reduction gives s-closeness, s-eccentricity
and s-PageRank.

All functions return ``{original hyperedge ID: score}`` restricted to the
hyperedges that participate in the s-line graph, and compute it from
scratch on every call with the kernel of
:data:`~repro.core.pipeline.METRIC_FUNCTIONS` that
``QueryEngine.metric_by_hyperedge(s, name)`` and
``ServiceClient.metric(s, name)`` serve from a cached overlap index.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.base import metric_by_hyperedge


def s_betweenness_centrality(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> Dict[int, float]:
    """Normalized s-betweenness centrality of every participating hyperedge.

    Examples
    --------
    >>> from repro.hypergraph import hypergraph_from_edge_lists
    >>> h = hypergraph_from_edge_lists([[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]])
    >>> scores = s_betweenness_centrality(h, s=1)
    >>> max(scores, key=scores.get)   # hyperedge 2 bridges {0,1} and {3}
    2
    """
    return metric_by_hyperedge(h, s, "betweenness", line_graph)


def s_closeness_centrality(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> Dict[int, float]:
    """s-closeness centrality (Wasserman–Faust corrected) per participating
    hyperedge."""
    return metric_by_hyperedge(h, s, "closeness", line_graph)


def s_eccentricity(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> Dict[int, float]:
    """s-eccentricity of every participating hyperedge (within its component)."""
    return metric_by_hyperedge(h, s, "eccentricity", line_graph)


def s_pagerank(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> Dict[int, float]:
    """s-PageRank (damping 0.85) of every participating hyperedge.

    Used on the *dual* hypergraph this gives the s-clique-graph PageRank of
    the original vertices — the paper's Table II disease-ranking experiment.
    """
    return metric_by_hyperedge(h, s, "pagerank", line_graph)

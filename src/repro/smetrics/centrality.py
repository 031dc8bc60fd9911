"""s-centrality measures of hyperedges.

The s-betweenness centrality of a hyperedge ``e`` (Section II-B of the
paper) counts the fraction of shortest s-walks between other hyperedge
pairs that pass through ``e`` — i.e. the betweenness centrality of ``e`` in
the s-line graph.  The same reduction gives s-closeness, s-eccentricity
and s-PageRank.

All functions return ``{original hyperedge ID: score}`` restricted to the
hyperedges that participate in the s-line graph, and compute it from
scratch on every call.  The same dict, at default parameters, is served
from a cached overlap index by ``QueryEngine.metric_by_hyperedge(s, name)``
or, over the wire, by ``ServiceClient.metric(s, name)`` (``name`` a key of
:data:`~repro.core.pipeline.METRIC_FUNCTIONS`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.slinegraph import SLineGraph
from repro.graph.betweenness import betweenness_centrality
from repro.graph.distance import closeness_centrality, eccentricity
from repro.graph.pagerank import pagerank
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.smetrics.base import line_graph_and_mapping


def s_betweenness_centrality(
    h: Hypergraph,
    s: int,
    normalized: bool = True,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, float]:
    """s-betweenness centrality of every participating hyperedge.

    Examples
    --------
    >>> from repro.hypergraph import hypergraph_from_edge_lists
    >>> h = hypergraph_from_edge_lists([[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]])
    >>> scores = s_betweenness_centrality(h, s=1)
    >>> max(scores, key=scores.get)   # hyperedge 2 bridges {0,1} and {3}
    2
    """
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(betweenness_centrality(graph, normalized=normalized))


def s_closeness_centrality(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, float]:
    """s-closeness centrality (Wasserman–Faust corrected) per participating
    hyperedge."""
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(closeness_centrality(graph))


def s_eccentricity(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, float]:
    """s-eccentricity of every participating hyperedge (within its component)."""
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(eccentricity(graph))


def s_pagerank(
    h: Hypergraph,
    s: int,
    damping: float = 0.85,
    weighted: bool = False,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, float]:
    """s-PageRank of every participating hyperedge.

    Used on the *dual* hypergraph this gives the s-clique-graph PageRank of
    the original vertices — the paper's Table II disease-ranking experiment.
    """
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(pagerank(graph, damping=damping, weighted=weighted))

"""s-centrality measures of hyperedges.

The s-betweenness centrality of a hyperedge ``e`` (Section II-B of the
paper) counts the fraction of shortest s-walks between other hyperedge
pairs that pass through ``e`` — i.e. the betweenness centrality of ``e`` in
the s-line graph.  The same reduction gives s-closeness, s-harmonic,
s-eccentricity and s-PageRank.

All functions return ``{original hyperedge ID: score}`` restricted to the
hyperedges that participate in the s-line graph.

Engine-served centralities
--------------------------
Every measure with a :data:`~repro.core.pipeline.METRIC_FUNCTIONS`
counterpart accepts ``engine=`` — a :class:`~repro.engine.QueryEngine`
(or a store-backed one) whose overlap index and LRU cache serve the
result: the first call per ``(s, metric)`` builds the line graph from a
binary-search threshold view, repeated calls are dictionary lookups, and
nothing is recomputed across different ``s``.  The engine caches results
computed with the default measure parameters, so combining ``engine=``
with non-default parameters (``normalized=False``, a custom ``damping``…)
raises instead of silently serving a mismatched cache entry.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.slinegraph import SLineGraph
from repro.graph.betweenness import betweenness_centrality
from repro.graph.distance import closeness_centrality, eccentricity, harmonic_centrality
from repro.graph.pagerank import pagerank
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.smetrics.base import line_graph_and_mapping, metric_via_engine


def s_betweenness_centrality(
    h: Hypergraph,
    s: int,
    normalized: bool = True,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
    engine=None,
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
    if engine is not None:
        return metric_via_engine(
            engine, h, s, "betweenness",
            non_default=not normalized or line_graph is not None or include_isolated,
        )
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
    engine=None,
) -> Dict[int, float]:
    """s-closeness centrality (Wasserman–Faust corrected) per participating
    hyperedge."""
    if engine is not None:
        return metric_via_engine(
            engine, h, s, "closeness",
            non_default=line_graph is not None or include_isolated,
        )
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(closeness_centrality(graph))


def s_harmonic_centrality(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, float]:
    """s-harmonic centrality of every participating hyperedge."""
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(harmonic_centrality(graph))


def s_eccentricity(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
    engine=None,
) -> Dict[int, float]:
    """s-eccentricity of every participating hyperedge (within its component)."""
    if engine is not None:
        return metric_via_engine(
            engine, h, s, "eccentricity",
            non_default=line_graph is not None or include_isolated,
        )
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
    engine=None,
) -> Dict[int, float]:
    """s-PageRank of every participating hyperedge.

    Used on the *dual* hypergraph this gives the s-clique-graph PageRank of
    the original vertices — the paper's Table II disease-ranking experiment.
    """
    if engine is not None:
        return metric_via_engine(
            engine, h, s, "pagerank",
            non_default=damping != 0.85
            or weighted
            or line_graph is not None
            or include_isolated,
        )
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    return mapping.by_hyperedge(pagerank(graph, damping=damping, weighted=weighted))

"""Shared plumbing for the s-measure functions.

Every s-measure follows the same recipe: build the s-line graph of the
hypergraph (or of its dual, for vertex-centric "s-clique" measures), squeeze
the IDs, run a graph algorithm, and report the result keyed by original
hyperedge IDs.  :func:`line_graph_and_mapping` factors out the common part.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.dispatch import s_line_graph
from repro.core.slinegraph import SLineGraph
from repro.graph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import SqueezeResult
from repro.parallel.executor import ParallelConfig


def line_graph_and_mapping(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Tuple[Graph, SqueezeResult, SLineGraph]:
    """Build (or reuse) the s-line graph of ``h`` and its squeezed CSR graph.

    Parameters
    ----------
    line_graph:
        A pre-computed :class:`SLineGraph` (e.g. from an ensemble run) to
        reuse instead of recomputing.
    include_isolated:
        Keep hyperedges of ``E_s`` with no incident line-graph edges as
        isolated vertices of the squeezed graph.

    Returns
    -------
    (graph, mapping, line_graph):
        The squeezed CSR graph, the squeezed→original ID mapping and the
        (un-squeezed) s-line graph.
    """
    if line_graph is None:
        line_graph = s_line_graph(h, s, algorithm=algorithm, config=config)
    squeezed, mapping = line_graph.squeeze(include_isolated=include_isolated)
    graph = squeezed.to_graph(squeezed=False)
    return graph, mapping, line_graph

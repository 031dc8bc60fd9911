"""Shared plumbing for the s-measure functions.

Every s-measure follows the same recipe: build the s-line graph of the
hypergraph (or of its dual, for vertex-centric "s-clique" measures), squeeze
the IDs, run a graph algorithm, and report the result keyed by original
hyperedge IDs.  :func:`line_graph_and_mapping` factors out the common part;
:func:`metric_by_hyperedge` finishes it with the Stage-5 kernel the engine
serves, so a measure computed here is the served dict by construction.

The Stage-3 kernel is chosen by building the line graph yourself —
``s_line_graph(h, s, algorithm=..., config=...)`` or an ensemble run — and
passing it as ``line_graph``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.dispatch import s_line_graph
from repro.core.pipeline import METRIC_FUNCTIONS
from repro.core.slinegraph import SLineGraph
from repro.graph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import SqueezeResult


def line_graph_and_mapping(
    h: Hypergraph,
    s: int,
    line_graph: Optional[SLineGraph] = None,
) -> Tuple[Graph, SqueezeResult, SLineGraph]:
    """Build (or reuse) the s-line graph of ``h`` and its squeezed CSR graph.

    Hyperedges of ``E_s`` with no s-incident partner are not vertices of
    the squeezed graph (Stage 4 keeps only edge endpoints).

    Returns
    -------
    (graph, mapping, line_graph):
        The squeezed CSR graph, the squeezed→original ID mapping and the
        (un-squeezed) s-line graph.
    """
    if line_graph is None:
        line_graph = s_line_graph(h, s)
    squeezed, mapping = line_graph.squeeze()
    return squeezed.to_graph(squeezed=False), mapping, line_graph


def metric_by_hyperedge(
    h: Hypergraph,
    s: int,
    name: str,
    line_graph: Optional[SLineGraph] = None,
) -> Dict[int, float]:
    """``METRIC_FUNCTIONS[name]`` of the squeezed ``L_s``, keyed by original
    hyperedge ID — what ``QueryEngine.metric_by_hyperedge(s, name)`` serves."""
    graph, mapping, _ = line_graph_and_mapping(h, s, line_graph)
    return mapping.by_hyperedge(METRIC_FUNCTIONS[name](graph))

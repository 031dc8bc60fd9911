"""Shared plumbing for the s-measure functions.

Every s-measure follows the same recipe: build the s-line graph of the
hypergraph (or of its dual, for vertex-centric "s-clique" measures), squeeze
the IDs, run a graph algorithm, and report the result keyed by original
hyperedge IDs.  :func:`line_graph_and_mapping` factors out the common part.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.dispatch import s_line_graph
from repro.core.slinegraph import SLineGraph
from repro.graph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import SqueezeResult
from repro.parallel.executor import ParallelConfig
from repro.utils.validation import ValidationError


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


def metric_via_engine(
    engine,
    h: Optional[Hypergraph],
    s: int,
    metric: str,
    non_default: bool = False,
) -> Dict[int, float]:
    """Serve an s-measure from a :class:`~repro.engine.QueryEngine`.

    The engine path replaces "build the line graph, squeeze, run the
    metric" with a cached lookup — repeated calls cost a dictionary probe
    instead of a rebuild.  Two guard rails keep it equivalent to the direct
    path: the engine must describe the *same* hypergraph (fingerprints are
    compared when ``h`` is supplied), and the caller must not have asked
    for non-default measure parameters (``non_default=True``), because the
    engine caches every metric under its :data:`METRIC_FUNCTIONS` defaults.
    """
    if non_default:
        raise ValidationError(
            f"engine-served {metric} supports only the default measure "
            "parameters (the engine caches results computed with them); "
            "drop engine= to use non-default parameters"
        )
    if h is not None and engine.fingerprint() != h.fingerprint():
        raise ValidationError(
            f"engine serves a different hypergraph than the one supplied "
            f"(fingerprints {engine.fingerprint()[:12]}… vs "
            f"{h.fingerprint()[:12]}…)"
        )
    return engine.metric_by_hyperedge(s, metric)

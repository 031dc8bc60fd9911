"""s-connected components of a hypergraph.

A subset of hyperedges ``F ⊆ E_s`` is an s-connected component when every
pair of its members is joined by an s-walk and ``F`` is maximal — i.e. the
connected components of the s-line graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.slinegraph import SLineGraph
from repro.graph.connected_components import connected_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.executor import ParallelConfig
from repro.smetrics.base import line_graph_and_mapping


def s_component_labels(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
) -> Dict[int, int]:
    """Component label of each hyperedge participating in the s-line graph.

    Hyperedges with ``|e| < s`` (not in ``E_s``) are never included;
    hyperedges in ``E_s`` with no s-incident partner appear only when
    ``include_isolated=True`` (each as its own singleton component).
    """
    graph, mapping, _ = line_graph_and_mapping(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    labels = mapping.by_hyperedge(connected_components(graph))
    return {edge_id: int(label) for edge_id, label in labels.items()}


def s_connected_components(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    line_graph: Optional[SLineGraph] = None,
    include_isolated: bool = False,
    min_size: int = 1,
) -> List[List[int]]:
    """The s-connected components as lists of original hyperedge IDs.

    Components are sorted by decreasing size (ties by smallest member ID)
    and components smaller than ``min_size`` are dropped — the paper's IMDB
    case study, for example, reports only non-singleton 100-connected
    components.
    """
    labels = s_component_labels(
        h, s, algorithm=algorithm, config=config, line_graph=line_graph,
        include_isolated=include_isolated,
    )
    groups: Dict[int, List[int]] = {}
    for edge_id, component in labels.items():
        groups.setdefault(component, []).append(edge_id)
    components = [sorted(members) for members in groups.values() if len(members) >= min_size]
    components.sort(key=lambda c: (-len(c), c[0] if c else 0))
    return components


def num_s_connected_components(
    h: Hypergraph,
    s: int,
    algorithm: str = "hashmap",
    config: Optional[ParallelConfig] = None,
    include_isolated: bool = False,
) -> int:
    """Number of s-connected components (singleton components excluded by default)."""
    return len(
        s_connected_components(
            h, s, algorithm=algorithm, config=config,
            include_isolated=include_isolated,
            min_size=1 if include_isolated else 2,
        )
    )

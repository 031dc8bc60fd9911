"""s-connected components of a hypergraph.

A subset of hyperedges ``F ⊆ E_s`` is an s-connected component when every
pair of its members is joined by an s-walk and ``F`` is maximal — i.e. the
connected components of the s-line graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.base import metric_by_hyperedge


def s_component_labels(
    h: Hypergraph, s: int, line_graph: Optional[SLineGraph] = None
) -> Dict[int, int]:
    """Component label of each hyperedge participating in the s-line graph.

    Hyperedges with ``|e| < s`` (not in ``E_s``) and hyperedges of ``E_s``
    with no s-incident partner are never included.  Labels are ints; the
    served dict carries the same values as floats.
    """
    labels = metric_by_hyperedge(h, s, "connected_components", line_graph)
    return {edge_id: int(label) for edge_id, label in labels.items()}


def s_connected_components(
    h: Hypergraph,
    s: int,
    line_graph: Optional[SLineGraph] = None,
    min_size: int = 1,
) -> List[List[int]]:
    """The s-connected components as lists of original hyperedge IDs.

    Components are sorted by decreasing size (ties by smallest member ID)
    and components smaller than ``min_size`` are dropped — the paper's IMDB
    case study, for example, reports only non-singleton 100-connected
    components.
    """
    groups: Dict[int, List[int]] = {}
    for edge_id, component in s_component_labels(h, s, line_graph).items():
        groups.setdefault(component, []).append(edge_id)
    components = [sorted(members) for members in groups.values() if len(members) >= min_size]
    components.sort(key=lambda c: (-len(c), c[0] if c else 0))
    return components


def num_s_connected_components(h: Hypergraph, s: int) -> int:
    """Number of s-connected components (hyperedges with no s-incident
    partner are not counted)."""
    return len(s_connected_components(h, s))

"""s-walks and s-paths (Section II-B of the paper).

An *s-walk* is a sequence of hyperedges in which consecutive hyperedges
share at least ``s`` vertices; an *s-path* is an s-walk without repeated
hyperedges.  All s-measures in the paper are defined through s-walks; these
helpers make the notion first-class: validating walks, extracting a shortest
s-path between two hyperedges, and enumerating the hyperedges reachable by
s-walks from a seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from scipy.sparse import csgraph

from repro.core.slinegraph import SLineGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.base import line_graph_and_mapping
from repro.utils.validation import ValidationError, check_s_value


def is_s_walk(h: Hypergraph, edge_sequence: Sequence[int], s: int) -> bool:
    """True when consecutive hyperedges of ``edge_sequence`` are s-incident.

    A single hyperedge (or an empty sequence) is trivially an s-walk provided
    the hyperedges exist; hyperedge IDs outside the hypergraph raise.
    """
    s = check_s_value(s)
    sequence = [int(e) for e in edge_sequence]
    for e in sequence:
        if e < 0 or e >= h.num_edges:
            raise ValidationError(f"hyperedge {e} does not exist")
    for a, b in zip(sequence, sequence[1:]):
        if h.inc(a, b) < s:
            return False
    return True


def is_s_path(h: Hypergraph, edge_sequence: Sequence[int], s: int) -> bool:
    """True when ``edge_sequence`` is an s-walk with no repeated hyperedges."""
    sequence = [int(e) for e in edge_sequence]
    if len(set(sequence)) != len(sequence):
        return False
    return is_s_walk(h, sequence, s)


def shortest_s_path(
    h: Hypergraph,
    source: int,
    target: int,
    s: int,
    line_graph: Optional[SLineGraph] = None,
) -> Optional[List[int]]:
    """A shortest s-path between two hyperedges, as a list of hyperedge IDs.

    Returns ``None`` when the two hyperedges are not s-connected; returns
    ``[source]`` when ``source == target``.  Both endpoints must be members
    of ``E_s`` (size at least ``s``).
    """
    s = check_s_value(s)
    if h.edge_size(source) < s or h.edge_size(target) < s:
        raise ValidationError(
            f"hyperedges {source} and {target} must both have at least s={s} vertices"
        )
    if source == target:
        return [int(source)]
    graph, mapping, _ = line_graph_and_mapping(h, s, line_graph)
    try:
        src = mapping.to_squeezed(int(source))
        dst = mapping.to_squeezed(int(target))
    except KeyError:  # an endpoint has no s-incident partner
        return None
    _, pred = csgraph.breadth_first_order(
        graph.adjacency_matrix(), src, return_predecessors=True
    )
    if pred[dst] < 0:  # scipy marks unreached vertices (and the source) -9999
        return None
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return [int(mapping.new_to_old[v]) for v in path]


def s_reachable_set(
    h: Hypergraph,
    source: int,
    s: int,
    line_graph: Optional[SLineGraph] = None,
) -> List[int]:
    """All hyperedges reachable from ``source`` by an s-walk (including itself).

    ``source`` must be a member of ``E_s``.
    """
    s = check_s_value(s)
    if h.edge_size(source) < s:
        raise ValidationError(f"hyperedge {source} has fewer than s={s} vertices")
    graph, mapping, _ = line_graph_and_mapping(h, s, line_graph)
    try:
        src = mapping.to_squeezed(int(source))
    except KeyError:  # no s-incident partner
        return [int(source)]
    reachable = csgraph.breadth_first_order(
        graph.adjacency_matrix(), src, return_predecessors=False
    )
    return sorted(mapping.new_to_old[reachable].tolist())

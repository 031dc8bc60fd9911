"""Revealing relationships among authors (Section V-B / Figure 6).

The paper computes an ensemble of s-line graphs (s = 1..16) of the condMat
author–paper hypergraph and tracks the normalized algebraic connectivity of
each: decreasing values for s = 3..12 reveal sparse collaboration, and the
sharp increase from s = 13 shows that authors co-authoring at least 13
papers form densely connected groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.engine import QueryEngine
from repro.generators.datasets import condmat_surrogate
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.spectral import s_normalized_algebraic_connectivity


@dataclass
class CoauthorshipResult:
    """Normalized algebraic connectivity of the s-line graphs of an author–paper network."""

    s_values: List[int]
    #: ``s -> normalized algebraic connectivity`` (0.0 when the s-line graph is trivial).
    connectivity: Dict[int, float] = field(default_factory=dict)
    #: ``s -> number of edges`` in the s-line graph.
    line_graph_sizes: Dict[int, int] = field(default_factory=dict)

    def max_nontrivial_s(self) -> int:
        """Largest ``s`` whose s-line graph still has at least one edge."""
        nontrivial = [s for s, n in self.line_graph_sizes.items() if n > 0]
        return max(nontrivial) if nontrivial else 0

    def rises_at(self) -> Optional[int]:
        """The ``s`` value with the largest jump in connectivity over ``s − 1``.

        For the condMat data this is the paper's headline observation: the
        sharp increase at s = 13 showing that authors with 13+ joint papers
        form densely connected collectives.
        """
        ordered = sorted(self.connectivity)
        best_s: Optional[int] = None
        best_jump = 0.0
        for prev, cur in zip(ordered, ordered[1:]):
            jump = self.connectivity[cur] - self.connectivity[prev]
            if jump > best_jump:
                best_jump = jump
                best_s = cur
        return best_s


def coauthorship_connectivity(
    hypergraph: Optional[Hypergraph] = None,
    s_values: Sequence[int] = tuple(range(1, 17)),
    seed: int = 0,
    engine: Optional[QueryEngine] = None,
) -> CoauthorshipResult:
    """Run the Section V-B analysis on an author–paper hypergraph.

    Parameters
    ----------
    hypergraph:
        Papers as hyperedges, authors as vertices; defaults to the condMat
        surrogate.
    s_values:
        Thresholds to sweep (the paper uses 1..16, the largest s with
        non-singleton components).
    seed:
        Seed for the surrogate dataset when ``hypergraph`` is omitted.
    engine:
        Optional pre-built :class:`~repro.engine.QueryEngine` to serve the
        sweep from (its hypergraph takes precedence); one is created
        otherwise.  The whole s-range is a single counting pass either way —
        the engine additionally caches the per-s views for later queries.
    """
    if engine is None:
        h = hypergraph if hypergraph is not None else condmat_surrogate(seed=seed)
        engine = QueryEngine(h)
    elif (
        hypergraph is not None
        and hypergraph.fingerprint() != engine.fingerprint()
    ):
        raise ValueError(
            "hypergraph and engine disagree: pass one or the other, or an "
            "engine built over the same hypergraph"
        )
    h = engine.hypergraph
    s_list = sorted(set(int(s) for s in s_values))
    result = CoauthorshipResult(s_values=s_list)
    for s in s_list:
        line_graph = engine.line_graph(s)
        result.line_graph_sizes[s] = line_graph.num_edges
        result.connectivity[s] = s_normalized_algebraic_connectivity(
            h, s, line_graph=line_graph
        )
    return result

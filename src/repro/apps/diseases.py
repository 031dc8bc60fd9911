"""Disease ranking via PageRank on s-clique graphs (Section III-I / Table II).

The paper links diseases that share associated genes: the clique expansion
(s = 1) of the disease–gene hypergraph and the higher-order s-clique graphs
for s = 10 and s = 100.  PageRank is computed on each graph; the top-ranked
diseases and their score percentiles are nearly identical across the three
graphs even though the s = 100 graph has ~231× fewer edges — motivating
high-order expansions as cheap, faithful substitutes for the clique
expansion.

In hypergraph terms the s-clique graph of ``H`` (vertices = diseases,
hyperedges = genes) is the s-line graph of the *dual* hypergraph, so the
implementation simply calls the standard machinery on ``H*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from repro.core.pipeline import METRIC_FUNCTIONS
from repro.generators.datasets import disgenet_surrogate
from repro.graph.pagerank import score_percentiles
from repro.hypergraph.hypergraph import Hypergraph
from repro.smetrics.base import line_graph_and_mapping


@dataclass
class DiseaseRankingResult:
    """PageRank rankings of diseases across several s-clique graphs."""

    s_values: List[int]
    #: ``s -> [(disease name, ordinal rank, score percentile), ...]`` for the top-k.
    top_ranked: Dict[int, List[tuple]] = field(default_factory=dict)
    #: ``s -> number of edges`` of the s-clique graph (Table II reports 2.7M/246K/12K).
    edge_counts: Dict[int, int] = field(default_factory=dict)
    #: ``s -> {disease name: ordinal rank}`` over all ranked diseases.
    full_rankings: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def overlap_of_top_k(self, s_a: int, s_b: int, k: int) -> float:
        """Fraction of the top-``k`` names at ``s_a`` that remain top-``k`` at ``s_b``."""
        names_a = {name for name, _, _ in self.top_ranked_k(s_a, k)}
        names_b = {name for name, _, _ in self.top_ranked_k(s_b, k)}
        if not names_a:
            return 0.0
        return len(names_a & names_b) / len(names_a)

    def top_ranked_k(self, s: int, k: int) -> List[tuple]:
        """The top-``k`` ``(name, rank, percentile)`` triples for threshold ``s``."""
        ranking = self.full_rankings[s]
        names = sorted(ranking, key=ranking.get)[:k]
        lookup = {name: (rank, pct) for name, rank, pct in self.top_ranked[s]}
        out = []
        for name in names:
            rank, pct = lookup.get(name, (ranking[name], float("nan")))
            out.append((name, rank, pct))
        return out


def rank_diseases(
    hypergraph: Optional[Hypergraph] = None,
    s_values: Sequence[int] = (1, 10, 100),
    top_k: int = 5,
    seed: int = 0,
) -> DiseaseRankingResult:
    """Run the Table II analysis on a disease–gene hypergraph.

    Parameters
    ----------
    hypergraph:
        Genes as hyperedges, diseases as vertices; defaults to the disGeNet
        surrogate.
    s_values:
        Clique-expansion thresholds (the paper uses 1, 10, 100).
    top_k:
        How many top diseases to tabulate per threshold.
    seed:
        Seed for the surrogate dataset when ``hypergraph`` is omitted.
    """
    h = hypergraph if hypergraph is not None else disgenet_surrogate(seed=seed)
    dual = h.dual()  # hyperedges of the dual = diseases
    result = DiseaseRankingResult(s_values=sorted(set(int(s) for s in s_values)))
    for s in result.s_values:
        graph, mapping, line_graph = line_graph_and_mapping(dual, s)
        result.edge_counts[s] = line_graph.num_edges
        if graph.num_vertices == 0:
            result.top_ranked[s] = []
            result.full_rankings[s] = {}
            continue
        scores = METRIC_FUNCTIONS["pagerank"](graph)
        percentiles = score_percentiles(scores)
        order = np.argsort(-scores, kind="stable")
        names_in_order = [
            str(h.vertex_name(int(mapping.new_to_old[i]))) for i in order
        ]
        result.full_rankings[s] = {
            name: rank + 1 for rank, name in enumerate(names_in_order)
        }
        result.top_ranked[s] = [
            (
                names_in_order[rank],
                rank + 1,
                float(percentiles[order[rank]]),
            )
            for rank in range(min(top_k, len(names_in_order)))
        ]
    return result

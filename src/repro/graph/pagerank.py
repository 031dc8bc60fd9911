"""PageRank by power iteration on the CSR adjacency.

Used by the paper's Table II experiment: ranking diseases by PageRank on the
clique expansion (s=1) versus the s-clique graphs (s=10, 100) of the
disease–gene hypergraph, showing the top-ranked entities are stable across
the (much sparser) high-order expansions.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

#: Teleportation damping factor (the paper's and networkx's default).
DAMPING = 0.85
#: L1 convergence tolerance between successive power iterations.
TOLERANCE = 1e-10
#: Iteration cap; a :class:`RuntimeError` is raised when not converged.
MAX_ITERATIONS = 200


def pagerank(graph: Graph) -> np.ndarray:
    """PageRank scores of every vertex (sums to 1).

    Each undirected edge of ``graph`` acts as two directed edges, edge
    weights are ignored, the restart distribution is uniform and the
    damping factor is :data:`DAMPING`.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    adjacency = graph.adjacency_matrix(weighted=False)
    out_weight = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_weight == 0
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[~dangling] = 1.0 / out_weight[~dangling]
    # Row-stochastic transition matrix (transposed application below).
    transition = adjacency.multiply(inv_out[:, None]).tocsr()

    restart = np.full(n, 1.0 / n, dtype=np.float64)
    rank = restart.copy()
    for _ in range(MAX_ITERATIONS):
        dangling_mass = rank[dangling].sum()
        new_rank = (
            DAMPING * (transition.T @ rank + dangling_mass * restart)
            + (1.0 - DAMPING) * restart
        )
        err = np.abs(new_rank - rank).sum()
        rank = new_rank
        if err < TOLERANCE:
            return rank / rank.sum()
    raise RuntimeError(f"PageRank did not converge within {MAX_ITERATIONS} iterations")


def score_percentiles(scores: np.ndarray) -> np.ndarray:
    """Percentile (0–100) of each vertex's score among all scores.

    The paper's Table II reports, next to each ordinal rank, the percentile
    of the disease's PageRank score; ties share the same percentile.
    """
    n = scores.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if n == 1:
        return np.array([100.0])
    # "Weak" percentile: fraction of scores less than or equal to the score,
    # so the top score (and any ties for it) sits at 100%.
    sorted_scores = np.sort(scores)
    positions = np.searchsorted(sorted_scores, scores, side="right")
    return positions / n * 100.0

"""PageRank by power iteration on the CSR adjacency.

Used by the paper's Table II experiment: ranking diseases by PageRank on the
clique expansion (s=1) versus the s-clique graphs (s=10, 100) of the
disease–gene hypergraph, showing the top-ranked entities are stable across
the (much sparser) high-order expansions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.graph import Graph
from repro.utils.validation import ValidationError


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    weighted: bool = False,
    personalization: Optional[np.ndarray] = None,
) -> np.ndarray:
    """PageRank scores of every vertex (sums to 1).

    Parameters
    ----------
    graph:
        Undirected CSR graph; each undirected edge acts as two directed edges.
    damping:
        Teleportation damping factor in ``(0, 1)``.
    tol:
        L1 convergence tolerance between successive iterations.
    max_iter:
        Iteration cap; a :class:`RuntimeError` is raised when not converged.
    weighted:
        When True transition probabilities are proportional to edge weights.
    personalization:
        Optional restart distribution (normalised internally).
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError("damping must be in (0, 1)")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    adjacency = graph.adjacency_matrix(weighted=weighted)
    out_weight = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_weight == 0
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[~dangling] = 1.0 / out_weight[~dangling]
    # Row-stochastic transition matrix (transposed application below).
    transition = adjacency.multiply(inv_out[:, None]).tocsr()

    if personalization is None:
        restart = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        restart = np.asarray(personalization, dtype=np.float64)
        if restart.size != n:
            raise ValidationError("personalization must have one entry per vertex")
        total = restart.sum()
        if total <= 0:
            raise ValidationError("personalization must have positive mass")
        restart = restart / total

    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iter):
        dangling_mass = rank[dangling].sum()
        new_rank = (
            damping * (transition.T @ rank + dangling_mass * restart)
            + (1.0 - damping) * restart
        )
        err = np.abs(new_rank - rank).sum()
        rank = new_rank
        if err < tol:
            return rank / rank.sum()
    raise RuntimeError(f"PageRank did not converge within {max_iter} iterations")


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

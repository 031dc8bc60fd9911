"""The paper's primary contribution: s-line-graph algorithms and framework.

Public entry points:

* :class:`repro.core.SLineGraph` — the result type: the edge list of an
  s-line graph over (a subset of) the hyperedge IDs, with overlap weights.
* :func:`repro.core.s_line_graph` — compute a single s-line graph with a
  selectable algorithm (``naive``, ``heuristic`` [Algorithm 1], ``hashmap``
  [Algorithm 2], ``vectorized``, ``spgemm``, ``spgemm_upper``).
* :func:`repro.core.s_line_graph_ensemble` — compute an ensemble of s-line
  graphs for several ``s`` values in one counting pass (Algorithm 3).
* :class:`repro.core.SLinePipeline` — the five-stage framework
  (preprocess → toplexes → s-overlap → squeeze → s-metrics).
* :mod:`repro.core.algorithms.registry` — the paper's variant notation
  (``1BA`` … ``2CD``) combining algorithm, partitioning and relabelling.
"""

from repro.core.slinegraph import SLineGraph, SLineGraphEnsemble
from repro.core.dispatch import s_line_graph, s_line_graph_ensemble, ALGORITHMS
from repro.core.pipeline import SLinePipeline, PipelineResult
from repro.core.algorithms.registry import (
    VariantSpec,
    parse_variant,
    run_variant,
    ALL_VARIANTS,
)
from repro.core.sclique import (
    s_clique_graph,
    s_clique_graph_ensemble,
    two_section,
    weighted_clique_expansion,
)

__all__ = [
    "s_clique_graph",
    "s_clique_graph_ensemble",
    "two_section",
    "weighted_clique_expansion",
    "SLineGraph",
    "SLineGraphEnsemble",
    "s_line_graph",
    "s_line_graph_ensemble",
    "ALGORITHMS",
    "SLinePipeline",
    "PipelineResult",
    "VariantSpec",
    "parse_variant",
    "run_variant",
    "ALL_VARIANTS",
]

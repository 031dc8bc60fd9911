"""The five-stage s-line-graph framework (Section IV of the paper).

Stage 1  Pre-processing: remove empty hyperedges / isolated vertices and
         optionally relabel hyperedges by degree.
Stage 2  (optional) Toplex computation: keep only maximal hyperedges.
Stage 3  s-overlap: compute the edge list of the s-line graph with one of
         the registered algorithms.
Stage 4  (optional) ID squeezing: remap the hypersparse hyperedge-ID space
         of the line graph to a contiguous range and build the graph.
Stage 5  s-metric computation: run graph analytics (connected components,
         LPCC, betweenness, PageRank, …) on the squeezed s-line graph.

:class:`SLinePipeline` mirrors this structure and records a per-stage timing
breakdown compatible with the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.dispatch import s_line_graph as _dispatch_s_line_graph
from repro.core.dispatch import ALGORITHMS
from repro.core.slinegraph import SLineGraph
from repro.graph.betweenness import betweenness_centrality
from repro.graph.connected_components import (
    connected_components,
    label_propagation_components,
    num_components,
)
from repro.graph.distance import closeness_centrality, eccentricity
from repro.graph.graph import Graph
from repro.graph.pagerank import pagerank
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import (
    PreprocessResult,
    RelabelOrder,
    SqueezeResult,
    preprocess,
)
from repro.hypergraph.toplexes import simplify
from repro.parallel.executor import ParallelConfig
from repro.parallel.workload import WorkloadStats
from repro.utils.timing import StageTimes
from repro.utils.validation import ValidationError, check_s_value

#: Metric name → callable(Graph) -> result.  All metrics run on the squeezed
#: s-line graph; results are arrays over the squeezed vertex IDs.
METRIC_FUNCTIONS: Dict[str, Callable[[Graph], np.ndarray]] = {
    "connected_components": connected_components,
    "lpcc": label_propagation_components,
    "betweenness": betweenness_centrality,
    "closeness": closeness_centrality,
    "eccentricity": eccentricity,
    "pagerank": pagerank,
}


#: The Stage-5 metrics whose values are component labels.
COMPONENT_METRICS = ("connected_components", "lpcc")


def component_count(metrics: Mapping[str, np.ndarray]) -> Optional[int]:
    """Number of components from the first component-label metric in
    ``metrics`` (``None`` when none of :data:`COMPONENT_METRICS` ran)."""
    for name in COMPONENT_METRICS:
        if name in metrics:
            return num_components(metrics[name])
    return None


def check_metric_names(names: Sequence[str]) -> None:
    """Raise :class:`ValidationError` unless every name is a Stage-5 metric."""
    unknown = [m for m in names if m not in METRIC_FUNCTIONS]
    if unknown:
        raise ValidationError(
            f"unknown metrics {unknown}; available: {sorted(METRIC_FUNCTIONS)}"
        )


@dataclass
class PipelineResult:
    """Everything produced by one end-to-end pipeline run."""

    s: int
    line_graph: SLineGraph
    squeezed_graph: Optional[Graph]
    squeeze_mapping: Optional[SqueezeResult]
    metrics: Dict[str, np.ndarray] = field(default_factory=dict)
    stage_times: StageTimes = field(default_factory=StageTimes)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    preprocess_info: Optional[PreprocessResult] = None

    @property
    def num_line_graph_edges(self) -> int:
        """Edges in the computed s-line graph."""
        return self.line_graph.num_edges

    def num_components(self) -> Optional[int]:
        """Number of s-connected components (if a component metric was computed)."""
        return component_count(self.metrics)

    def metric_by_hyperedge(self, metric: str) -> Dict[int, float]:
        """Map a squeezed-graph metric back to original hyperedge IDs (a
        computed metric implies ``squeeze=True``, so the mapping exists)."""
        if metric not in self.metrics:
            raise KeyError(f"metric {metric!r} was not computed")
        return self.squeeze_mapping.by_hyperedge(self.metrics[metric])


class SLinePipeline:
    """Configurable five-stage s-line-graph pipeline.

    Parameters
    ----------
    algorithm:
        Stage-3 algorithm name (see :data:`repro.core.dispatch.ALGORITHMS`).
    relabel:
        Stage-1 relabel-by-degree order ("ascending", "descending", "none").
    compute_toplexes:
        Run the optional Stage 2 simplification.
    squeeze:
        Run the optional Stage 4 ID squeezing (required for Stage-5 metrics).
    metrics:
        Names of Stage-5 metrics (keys of :data:`METRIC_FUNCTIONS`).
    config:
        Parallel configuration forwarded to the Stage-3 algorithm.

    Every run recomputes the configured stages from its input: this is the
    correctness oracle every served answer is tested against, so it shares
    no state with the serving stack.

    Examples
    --------
    >>> from repro.hypergraph import hypergraph_from_edge_lists
    >>> h = hypergraph_from_edge_lists([[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]])
    >>> result = SLinePipeline(metrics=("connected_components",)).run(h, s=2)
    >>> result.num_line_graph_edges
    3
    """

    def __init__(
        self,
        algorithm: str = "hashmap",
        relabel: RelabelOrder = "none",
        compute_toplexes: bool = False,
        squeeze: bool = True,
        metrics: Sequence[str] = ("connected_components",),
        config: Optional[ParallelConfig] = None,
        drop_empty_edges: bool = True,
        drop_isolated_vertices: bool = True,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
            )
        check_metric_names(metrics)
        if metrics and not squeeze:
            raise ValidationError("Stage-5 metrics require squeeze=True")
        self.algorithm = algorithm
        self.relabel: RelabelOrder = relabel
        self.compute_toplexes = compute_toplexes
        self.squeeze = squeeze
        self.metrics = tuple(metrics)
        self.config = config or ParallelConfig()
        self.drop_empty_edges = drop_empty_edges
        self.drop_isolated_vertices = drop_isolated_vertices

    def run(self, h: Hypergraph, s: int) -> PipelineResult:
        """Execute all configured stages on ``h`` for overlap threshold ``s``."""
        s = check_s_value(s)
        times = StageTimes()

        # Stage 1 — preprocessing.
        with times.stage("preprocessing"):
            prep = preprocess(
                h,
                relabel=self.relabel,
                drop_empty_edges=self.drop_empty_edges,
                drop_isolated_vertices=self.drop_isolated_vertices,
            )
        working = prep.hypergraph

        # Stage 2 — optional toplex simplification.
        if self.compute_toplexes:
            with times.stage("toplexes"):
                working = simplify(working)

        # Stage 3 — s-overlap computation.
        with times.stage("s_overlap"):
            graph, workload = _dispatch_s_line_graph(
                working,
                s,
                algorithm=self.algorithm,
                config=self.config,
                return_workload=True,
            )

        # Map the edge IDs back to the IDs of the *input* hypergraph whenever
        # the mapping is well defined (no toplex simplification, which drops
        # edges irreversibly with respect to contiguous numbering).
        line_graph = graph
        if not self.compute_toplexes:
            # algorithm id --(relabel new→old)--> preprocessed id
            #              --(kept_edge_ids)--> original id.
            new_to_old = prep.kept_edge_ids
            if new_to_old is None:
                new_to_old = np.arange(h.num_edges, dtype=np.int64)
            if prep.relabel is not None:
                new_to_old = new_to_old[prep.relabel.new_to_old]
            line_graph = graph.translate_ids(new_to_old, h.num_edges)

        # Stage 4 — ID squeezing and graph construction.
        squeezed_graph: Optional[Graph] = None
        mapping: Optional[SqueezeResult] = None
        if self.squeeze:
            with times.stage("squeeze"):
                squeezed_line, mapping = line_graph.squeeze()
                squeezed_graph = squeezed_line.to_graph(squeezed=False)

        # Stage 5 — s-metric computation.
        metric_results: Dict[str, np.ndarray] = {}
        if self.metrics and squeezed_graph is not None:
            for name in self.metrics:
                with times.stage(name):
                    metric_results[name] = METRIC_FUNCTIONS[name](squeezed_graph)

        return PipelineResult(
            s=s,
            line_graph=line_graph,
            squeezed_graph=squeezed_graph,
            squeeze_mapping=mapping,
            metrics=metric_results,
            stage_times=times,
            workload=workload,
            preprocess_info=prep,
        )

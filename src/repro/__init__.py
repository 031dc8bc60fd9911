"""repro — high-order (s-)line graphs of non-uniform hypergraphs.

A from-scratch Python reproduction of *"High-order Line Graphs of
Non-uniform Hypergraphs: Algorithms, Applications, and Experimental
Analysis"* (Liu et al., IPDPS 2022): hypergraph data structures, the
hashmap-based s-line-graph construction algorithms (and every baseline they
are compared against), the five-stage s-measure framework, the s-measures
themselves, parallel-execution strategies, synthetic dataset surrogates, and
a benchmark harness that regenerates every table and figure of the paper's
evaluation.

Quickstart
----------
>>> import repro
>>> h = repro.hypergraph_from_edge_dict({
...     1: ["a", "b", "c"],
...     2: ["b", "c", "d"],
...     3: ["a", "b", "c", "d", "e"],
...     4: ["e", "f"],
... })
>>> lg = repro.s_line_graph(h, s=2)
>>> sorted(lg.edge_set())
[(0, 1), (0, 2), (1, 2)]
"""

from repro.hypergraph import (
    Hypergraph,
    hypergraph_from_edge_dict,
    hypergraph_from_edge_lists,
    hypergraph_from_incidence_pairs,
    hypergraph_from_incidence_matrix,
    hypergraph_from_bipartite,
    compute_stats,
)
from repro.core import (
    SLineGraph,
    SLineGraphEnsemble,
    SLinePipeline,
    PipelineResult,
    s_line_graph,
    s_line_graph_ensemble,
    s_clique_graph,
    s_clique_graph_ensemble,
    two_section,
    run_variant,
    parse_variant,
    ALL_VARIANTS,
    ALGORITHMS,
)
from repro.engine import OverlapIndex, QueryEngine, SweepResult
from repro.store import IndexStore, PersistentQueryEngine, ShardedIndex
from repro.service import (
    AdmissionQueue,
    CompactionPolicy,
    QueryService,
    ReadReplica,
    StoreLock,
)
from repro.parallel import ParallelConfig
from repro.smetrics import (
    s_connected_components,
    s_betweenness_centrality,
    s_closeness_centrality,
    s_distance,
    s_diameter,
    s_pagerank,
    s_normalized_algebraic_connectivity,
)
from repro.generators import load_dataset, available_datasets

__version__ = "1.0.0"

__all__ = [
    "Hypergraph",
    "hypergraph_from_edge_dict",
    "hypergraph_from_edge_lists",
    "hypergraph_from_incidence_pairs",
    "hypergraph_from_incidence_matrix",
    "hypergraph_from_bipartite",
    "compute_stats",
    "SLineGraph",
    "SLineGraphEnsemble",
    "SLinePipeline",
    "PipelineResult",
    "s_line_graph",
    "s_line_graph_ensemble",
    "s_clique_graph",
    "s_clique_graph_ensemble",
    "two_section",
    "run_variant",
    "parse_variant",
    "ALL_VARIANTS",
    "ALGORITHMS",
    "OverlapIndex",
    "QueryEngine",
    "SweepResult",
    "IndexStore",
    "PersistentQueryEngine",
    "ShardedIndex",
    "AdmissionQueue",
    "CompactionPolicy",
    "QueryService",
    "ReadReplica",
    "StoreLock",
    "ParallelConfig",
    "s_connected_components",
    "s_betweenness_centrality",
    "s_closeness_centrality",
    "s_distance",
    "s_diameter",
    "s_pagerank",
    "s_normalized_algebraic_connectivity",
    "load_dataset",
    "available_datasets",
    "__version__",
]

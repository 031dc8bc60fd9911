"""Synthetic hypergraph generators and dataset surrogates.

The paper evaluates on large real-world hypergraphs (LiveJournal, Friendster,
com-Orkut, Web, activeDNS, Amazon-reviews, Stackoverflow-answers,
email-EuAll) and application datasets (disGeNet, condMat, compBoard, lesMis,
virology genomics, IMDB).  None of these can be downloaded in an offline
reproduction, so this subpackage provides:

* generic generators (:mod:`random`, :mod:`community`) that produce
  non-uniform hypergraphs with controllable skew and planted overlap
  structure; and
* named surrogates (:mod:`datasets`) whose shapes — vertex/edge ratios,
  degree skew, planted high-overlap cores — are matched to the paper's
  Table IV and application sections at laptop scale.
"""

from repro.generators.random import (
    random_hypergraph,
    chung_lu_hypergraph,
    power_law_weights,
    zipf_edge_sizes,
)
from repro.generators.community import (
    planted_community_hypergraph,
    planted_overlap_core,
    add_overlap_core,
)
from repro.generators.datasets import (
    DATASET_SPECS,
    available_datasets,
    load_dataset,
    disgenet_surrogate,
    condmat_surrogate,
    compboard_surrogate,
    lesmis_surrogate,
    virology_surrogate,
    imdb_surrogate,
)

__all__ = [
    "random_hypergraph",
    "chung_lu_hypergraph",
    "power_law_weights",
    "zipf_edge_sizes",
    "planted_community_hypergraph",
    "planted_overlap_core",
    "add_overlap_core",
    "DATASET_SPECS",
    "available_datasets",
    "load_dataset",
    "disgenet_surrogate",
    "condmat_surrogate",
    "compboard_surrogate",
    "lesmis_surrogate",
    "virology_surrogate",
    "imdb_surrogate",
]

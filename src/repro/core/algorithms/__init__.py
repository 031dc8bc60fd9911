"""s-line-graph construction algorithms.

==================  =====================================================
Module              Algorithm
==================  =====================================================
``naive``           All-pairs set intersection (correctness reference).
``heuristic``       Algorithm 1 of the paper (Liu et al., HiPC'21): wedge
                    enumeration + explicit set intersection with degree
                    pruning, visited-skipping and short-circuiting.
``hashmap``         Algorithm 2: wedge enumeration with per-hyperedge
                    overlap-count hashmaps — no set intersections.
``vectorized``      Algorithm 2 a block of hyperedges at a time: two CSR
                    gathers, one sort of packed pair keys and a run-length
                    count per block.  What every index build runs.
``ensemble``        Algorithm 3: one counting pass shared by an ensemble of
                    s values.
``spgemm``          SpGEMM-based baselines (``H^T H`` + filtration), both
                    the full-product variant and the upper-triangular
                    Gustavson variant.
``registry``        The paper's Table III variant notation (1BA … 2CD).
==================  =====================================================
"""

from repro.core.algorithms.base import AlgorithmResult
from repro.core.algorithms.naive import s_line_graph_naive
from repro.core.algorithms.heuristic import s_line_graph_heuristic
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.core.algorithms.vectorized import s_line_graph_vectorized
from repro.core.algorithms.ensemble import s_line_graph_ensemble_hashmap, MemoryBudgetError
from repro.core.algorithms.spgemm import s_line_graph_spgemm, s_line_graph_spgemm_upper
from repro.core.algorithms.registry import (
    ALL_VARIANTS,
    VariantSpec,
    parse_variant,
    run_variant,
)

__all__ = [
    "AlgorithmResult",
    "s_line_graph_naive",
    "s_line_graph_heuristic",
    "s_line_graph_hashmap",
    "s_line_graph_vectorized",
    "s_line_graph_ensemble_hashmap",
    "MemoryBudgetError",
    "s_line_graph_spgemm",
    "s_line_graph_spgemm_upper",
    "parse_variant",
    "run_variant",
    "VariantSpec",
    "ALL_VARIANTS",
]

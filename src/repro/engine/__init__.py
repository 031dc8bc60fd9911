"""Overlap-index query engine: compute the overlap structure once, serve any s.

The engine layer turns the library from a batch pipeline into a query
service.  Section II-B of the paper shows every s-line graph is a Boolean
filtration ``L_s[i, j] = 1 iff (H^T H)[i, j] >= s`` of one weighted overlap
structure, so:

* :class:`OverlapIndex` enumerates all weighted overlap pairs once (via the
  registered Stage-3 algorithms at ``s = 1``, parallelised with the existing
  backends) and holds them as weight-sorted segments plus an overlay of
  updates — any ``L_s`` is then a binary-search slice per segment; a
  store's :class:`~repro.store.ShardedIndex` is the same class over shards;
* :class:`QueryEngine` fronts the index with an LRU result cache keyed by
  ``(hypergraph fingerprint, s, metric)`` and serves s-line graphs,
  s-metrics and batched multi-s sweeps with shared Stage-4 squeezing;
* incremental maintenance (:meth:`QueryEngine.add_hyperedge` /
  :meth:`QueryEngine.remove_hyperedge`) patches only the affected overlap
  rows, and the cache entries whose result could change are brought
  forward by the next miss (:mod:`repro.engine.delta`) rather than
  recomputed.
"""

from repro.engine.cache import LRUCache
from repro.engine.engine import QueryEngine, QueryStats, SweepResult
from repro.engine.index import OverlapIndex, overlap_counts_for_members

__all__ = [
    "LRUCache",
    "OverlapIndex",
    "QueryEngine",
    "QueryStats",
    "SweepResult",
    "overlap_counts_for_members",
]

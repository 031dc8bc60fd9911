"""The query engine: an LRU-cached, incrementally maintained s-query service.

:class:`QueryEngine` fronts one hypergraph and serves s-line graphs,
s-metrics and batched multi-s sweeps from a single
:class:`~repro.engine.index.OverlapIndex`.  Results are cached under
``(hypergraph fingerprint, s, kind)`` keys, so repeated queries — the
dominant pattern of a long-running analytics service — cost a dictionary
lookup.  Squeezing work (Stage 4) is shared between all metrics of the same
s.

Incremental updates (:meth:`~QueryEngine.add_hyperedge`,
:meth:`~QueryEngine.remove_hyperedge`) patch only the affected overlap rows
of the index — avoiding the wedge-enumeration pass that dominates a rebuild
— and the cache *carries its entries forward* instead of dropping them:

* **Retained.**  A hyperedge of size ``k`` can never appear in — nor
  contribute a pair to — any ``L_s`` with ``s > k``, so those entries are
  re-keyed to the new fingerprint at update time (a line graph after an
  add also has its ID-space bound raised; its arrays are shared).
* **Journalled.**  Every update appends one :class:`~repro.engine.delta.Update`
  to a bounded journal — fingerprint before → after, add or remove, the
  edge's ID and its overlap row (the one
  :func:`~repro.engine.index.overlap_counts_for_members` returns; O(row), no
  copy proportional to ``L_s``).  Entries at ``s <= k`` are left where
  they are, one more update behind; the update itself patches nothing.
  A line graph is the exception: ``L_s`` is a threshold view of the
  index, one binary search per segment, so one the update may have
  touched is dropped, never carried.  It is cached only at the
  fingerprint it was built at, and only for a caller of
  :meth:`~QueryEngine.line_graph`: Stage 4 squeezes the index's view
  without caching it.
* **Patched at read time.**  A miss at the current fingerprint that finds
  an ancestor entry within the journal carries it across every update
  since (its *window*) in one pass, with the array kernels of
  :mod:`repro.engine.delta` — the squeezed CSR (unweighted, int32 columns)
  loses and gains vertices in one splice of its column indices — caching
  the result and only then dropping the entry it came from.  Connected
  components are carried from the window's rows alone: the entry keeps a
  label and an s-degree per hyperedge ID, labels split under a remove (a
  lockstep search from its neighbours over the last squeezed CSR plus the
  rows since) and merge under an add, and the served squeezed IDs and
  labels both come from that one entry.  So a components miss reads no
  squeezed CSR: one is spliced forward only when a reader asks for it
  (:meth:`~QueryEngine.squeezed_graph`, any other metric) or once it
  trails by :data:`_RESPLICE` updates.  Every other metric is carried
  across a window whose rows are empty at its ``s``.
* **Fallbacks.**  The from-scratch path is the cold miss, and what a
  kernel defers to when a delta is not cheap: an add that gives a
  previously isolated hyperedge its first neighbour, or a remove that
  takes a surviving neighbour's last one, shifts the squeeze, so a
  squeezed CSR carried across it is rebuilt from ``L_s``; connected
  components never fall back (a shift is a degree change to them); any
  other metric is recomputed once a pending row reaches its ``s``.
  An entry more than :data:`_MAX_PENDING` updates behind, or updated
  before the index (and so an overlap row) existed, is dropped and
  recomputed on demand.

The contract is byte equality: a carried value has the ``tobytes()``,
dtype, shape and C order of the recomputed one, and is read-only
(``tests/properties/test_property_delta_cache.py``).  Concurrency: updates
are the single writer's, so readers see the journal as an immutable tuple;
two readers that miss the same key may both patch the same ancestor — the
results are identical, the second ``put`` wins, and the ancestor is popped
after the ``put``, so the later reader finds one of the two or, at worst,
recomputes the same bytes.

The hypergraph is an :class:`~repro.hypergraph.overlay.OverlayHypergraph`:
a frozen :class:`Hypergraph` plus the rows appended, the rows removed and
the vertex rows those updates touched.  An update appends to or tombstones
in the overlay and carries the fingerprint — a multiset digest, see
:meth:`Hypergraph.fingerprint` — by the lanes of the one row it changes, so
it costs the edge's members, never a copy of the CSRs or a hash of every
incidence.  The whole CSR is built only for a reader that needs it
(:attr:`QueryEngine.hypergraph`: the oracle, a Stage 3 rebuild) and when a
store compacts, which folds the overlay into a new frozen base.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import METRIC_FUNCTIONS, check_metric_names, component_count
from repro.core.slinegraph import SLineGraph
from repro.engine import delta
from repro.engine.cache import LRUCache
from repro.engine.delta import Update, shifted_indptr
from repro.engine.index import (
    BUILD_ALGORITHM,
    OverlapIndex,
    at_least,
    overlap_counts_for_members,
)
from repro.graph.graph import Graph
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.overlay import OverlayHypergraph
from repro.hypergraph.preprocessing import SqueezeResult
from repro.obs import get_registry
from repro.obs.trace import get_tracer
from repro.utils.validation import ValidationError, check_s_value


@dataclass
class QueryStats:
    """Counters describing the engine's work since construction."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    index_builds: int = 0
    incremental_adds: int = 0
    incremental_removes: int = 0
    #: Entries an update left unservable as they were (one step behind the
    #: journal; a later miss may still bring them forward).
    invalidated_entries: int = 0
    #: Entries an update provably could not touch, re-keyed on the spot.
    retained_entries: int = 0
    #: Entries a miss brought forward through the journal.
    patched_entries: int = 0
    #: Misses that found an ancestor but had to recompute (a delta kernel
    #: declined: a squeezed CSR carried across a shifted squeeze, a metric
    #: whose ``s`` a pending row reaches).
    delta_fallbacks: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: Most distinct thresholds one sweep may name.  Every value costs an index
#: count, plus a cache entry per named metric, so an unbounded request
#: (``s_max = 10**9`` fits a 40-byte frame) would exhaust time and memory;
#: the paper's sweeps stop at 1024.
MAX_SWEEP_THRESHOLDS = 4096

#: Most updates a cached entry may trail the hypergraph by and still be
#: brought forward; an entry further behind is dropped and its next query
#: recomputes.  Measured on the served fixture (livejournal x2, 4 shards;
#: ``benchmarks/bench_delta_miss.py``, one pinned CPU): an s = 1 components
#: miss k adds behind costs 0.4-0.7 ms at k = 1..8 and 2.6-4.1 ms at
#: k = 16..32, where it also splices the squeezed CSR (:data:`_RESPLICE`),
#: against a 21-28 ms recompute.  The bound sets how often a components
#: miss every few updates pays that splice: a ``churn_query`` cycle
#: replayed in process spent 11-19 % more in its components queries at 16
#: than at 32, and 64 was inside the host's noise of 32 (three alternating
#: pairs, 4.8 / 4.7 / 3.8 ms against 5.5 / 5.1 / 3.5 ms per cycle).  The
#: longer journal holds no more memory where it counts: after an equal 800
#: replayed cycles the process's peak RSS was 108.1-109.9 MB at 32 and
#: 109.4-111.1 MB at 16 (three alternating runs each; 107.1-110.6 MB with
#: the bound at 4 and the squeezed CSR spliced on every components miss).
#: It is not longer because every entry left behind is memory held for a
#: query that may never come.
_MAX_PENDING = 32

#: Updates a squeezed CSR may trail before a components carry splices it
#: forward: half the journal, so a CSR read every few updates is spliced
#: long before the journal forgets it.
_RESPLICE = _MAX_PENDING // 2

#: The metric carried from the window's rows (:func:`delta.components`).
_CC = "connected_components"


def sweep_thresholds(s_values: Iterable[int]) -> List[int]:
    """The sorted distinct thresholds of a sweep request, read lazily: more
    than :data:`MAX_SWEEP_THRESHOLDS` of them raise before anything
    proportional to the request (a huge ``range``) is allocated."""
    distinct: set[int] = set()
    for s in s_values:
        distinct.add(check_s_value(s))
        if len(distinct) > MAX_SWEEP_THRESHOLDS:
            raise ValidationError(
                f"sweep names more than {MAX_SWEEP_THRESHOLDS} distinct s values"
            )
    if not distinct:
        raise ValidationError("sweep requires at least one s value")
    return sorted(distinct)


@dataclass
class SweepResult:
    """Outcome of one batched multi-s sweep."""

    s_values: List[int]
    #: ``s -> number of line-graph edges`` (the Figure 4 quantity).
    edge_counts: Dict[int, int] = field(default_factory=dict)
    #: ``s -> |E_s|`` (active hyperedges).
    active_counts: Dict[int, int] = field(default_factory=dict)
    #: ``s -> metric name -> array over squeezed vertex IDs``.
    metrics: Dict[int, Dict[str, np.ndarray]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def num_components(self, s: int) -> Optional[int]:
        """Number of s-connected components, if a component metric ran."""
        return component_count(self.metrics.get(s, {}))


class QueryEngine:
    """Compute-once/serve-many facade over a hypergraph's overlap structure.

    Parameters
    ----------
    h:
        The hypergraph to serve queries for.
    algorithm:
        Stage-3 algorithm used for the one-off index build (and rebuilds).
    cache_size:
        Maximum number of cached results (line graphs, squeezed graphs and
        per-metric arrays each count as one entry).

    Examples
    --------
    >>> from repro.hypergraph import hypergraph_from_edge_lists
    >>> h = hypergraph_from_edge_lists([[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]])
    >>> engine = QueryEngine(h)
    >>> engine.line_graph(2).edge_set()
    {(0, 1), (0, 2), (1, 2)}
    >>> engine.index.edge_count(1)
    4
    """

    def __init__(
        self,
        h: Hypergraph,
        algorithm: str = BUILD_ALGORITHM,
        cache_size: int = 256,
        index: Optional[OverlapIndex] = None,
    ) -> None:
        if not isinstance(h, Hypergraph):
            raise ValidationError("QueryEngine requires a Hypergraph")
        self._graph = OverlayHypergraph(h)
        self.algorithm = algorithm
        if index is not None and (
            index.num_hyperedges != h.num_edges
            or not np.array_equal(index.edge_sizes, h.edge_sizes())
        ):
            raise ValidationError(
                "injected index does not describe this hypergraph "
                "(hyperedge count or sizes differ)"
            )
        self._index: Optional[OverlapIndex] = index
        self._cache = LRUCache(maxsize=cache_size, metrics_label="engine")
        self._tracer = get_tracer()
        update_seconds = get_registry().histogram(
            "repro_engine_update_seconds",
            "Wall time of one incremental update inside the engine (index "
            "patch, hypergraph refresh, cache migration; durability excluded).",
            ("op",),
        )
        self._m_add_seconds = update_seconds.labels(op="add")
        self._m_remove_seconds = update_seconds.labels(op="remove")
        self._index_builds = 0
        self._incremental_adds = 0
        self._incremental_removes = 0
        self._invalidated = 0
        self._retained = 0
        #: The last ``_MAX_PENDING`` updates, oldest first; replaced (never
        #: mutated) by the one writer, so readers iterate a stable snapshot.
        self._journal: Tuple[Update, ...] = ()
        # Concurrent readers carry entries forward: their two counters are
        # the only engine counters not owned by the single writer.
        self._carry_lock = threading.Lock()
        self._patched = 0
        self._fallbacks = 0
        #: The last sweep's counts, under its fingerprint and thresholds.  A
        #: client polling the profile between updates asks for the same
        #: counts again, and one comparison beats a search of every shard;
        #: replaced whole, so a reader sees one consistent triple.
        self._swept: Tuple[object, Dict[int, int], Dict[int, int]] = (None, {}, {})

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def hypergraph(self) -> Hypergraph:
        """The current (possibly incrementally updated) hypergraph.

        Materialised from the overlay once per state, O(nnz): for readers
        that need the whole CSR, never for an update.
        """
        return self._graph.materialise()

    @property
    def index(self) -> OverlapIndex:
        """The overlap index, built lazily on first access."""
        if self._index is None:
            self._index = OverlapIndex.build(self.hypergraph, algorithm=self.algorithm)
            self._index_builds += 1
        return self._index

    def fingerprint(self) -> str:
        """Content fingerprint of the current hypergraph (the cache-key
        prefix): carried through every update, a stored string."""
        return self._graph.fingerprint()

    def _fold_overlay(self) -> None:
        """Rebase the hypergraph overlay on its materialised state, so its
        memory stays bounded (O(nnz); a store folds it when it compacts)."""
        self._graph = OverlayHypergraph(self._graph.materialise())

    def stats(self) -> QueryStats:
        """Snapshot of cache and maintenance counters."""
        cache = self._cache.counters()  # one lock hold: consistent split
        return QueryStats(
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_evictions=cache["evictions"],
            cache_entries=cache["entries"],
            index_builds=self._index_builds,
            incremental_adds=self._incremental_adds,
            incremental_removes=self._incremental_removes,
            invalidated_entries=self._invalidated,
            retained_entries=self._retained,
            patched_entries=self._patched,
            delta_fallbacks=self._fallbacks,
        )

    def max_s(self) -> int:
        """Largest s with a non-empty s-line graph."""
        return self.index.max_weight

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _key(self, s: int, kind: str) -> Tuple[str, int, str]:
        return (self._graph.fingerprint(), int(s), kind)

    def _ancestor(self, key: Tuple[str, int, str]):
        """The nearest cached ancestor of ``key`` the journal still reaches:
        ``(its key, its value, the updates between it and now)``, or three
        ``None`` when there is none."""
        fp, s, kind = key
        journal = self._journal
        for first in range(len(journal) - 1, -1, -1):
            if journal[first].after != fp:
                break
            fp = journal[first].before
            value = self._cache.peek((fp, s, kind))
            if value is not None:
                return (fp, s, kind), value, journal[first:]
        return None, None, None

    def _latest(self, s: int, kind: str):
        """The newest entry of ``kind`` at ``s`` the journal reaches and the
        updates since it — ``()`` when it is current — or ``(None, None)``."""
        key = self._key(s, kind)
        value = self._cache.peek(key)
        if value is not None:
            return value, ()
        _, value, window = self._ancestor(key)
        return value, window

    def _fill(
        self,
        key: Tuple[str, int, str],
        carry: Callable,
        compute: Callable,
        arrays: Callable,
    ):
        """Cache and return the value of ``key`` after a miss.

        A cached ancestor within the journal is brought forward by
        ``carry(value, window)`` across every update since it, in one call;
        with no ancestor, or when ``carry`` declines (returns ``None``),
        ``compute()`` builds the value from scratch.  ``arrays(value)``
        names the arrays to freeze.

        The result is cached before the ancestor is dropped, so two
        generations of a large value are alive at once, never three, and a
        concurrent reader of the same key finds one of them at every moment
        (or recomputes the same bytes).
        """

        def publish(at, value):
            _freeze(*arrays(value))
            self._cache.put(at, value)

        behind, value, window = self._ancestor(key)
        if behind is not None:
            value = carry(value, window)
            if value is not None:
                publish(key, value)
            # Cached first, dropped second; a declined ancestor is no use to
            # any reader, so it goes before the rebuild's temporaries exist.
            self._cache.pop(behind)
            with self._carry_lock:
                if value is None:
                    self._fallbacks += 1
                else:
                    self._patched += 1
        if value is None:
            value = compute()
            publish(key, value)
        return value

    def line_graph(self, s: int) -> SLineGraph:
        """``L_s(H)`` in original hyperedge IDs: the index's threshold view,
        cached at the current fingerprint (an update drops it unless it
        provably cannot change it)."""
        s = check_s_value(s)
        key = self._key(s, "line_graph")
        with self._tracer.start_span("engine.line_graph", {"s": s}) as span:
            cached = self._cache.get(key)
            span.set_attribute("cache_hit", cached is not None)
            if cached is None:
                cached = self.index.line_graph(s)
                _freeze(cached.edges, cached.weights, cached.active_vertices)
                self._cache.put(key, cached)
            return cached

    def squeezed_graph(self, s: int) -> Tuple[Graph, SqueezeResult]:
        """Stage-4 view of ``L_s``: the squeezed CSR graph plus ID mapping.

        The graph is :meth:`SLineGraph.to_graph`'s unweighted int32 CSR —
        ``indptr.nbytes + 4 * nnz`` bytes, all a Stage-5 kernel reads.
        Cached per s so every metric of the same s shares one squeeze.
        """
        s = check_s_value(s)
        key = self._key(s, "squeezed")
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def compute():
            squeezed_line, mapping = self.index.line_graph(s).squeeze()
            return squeezed_line.to_graph(squeezed=False), mapping

        return self._fill(
            key,
            # None when the window shifts the squeeze: rebuild Stage 4.
            lambda value, window: delta.squeezed(*value, window, s),
            compute,
            lambda value: (value[0].indptr, value[0].indices, value[1].new_to_old),
        )

    def metric(self, s: int, name: str) -> np.ndarray:
        """A Stage-5 metric of ``L_s`` over squeezed vertex IDs (cached)."""
        value = self._metric(s, name)
        return value.labels if name == _CC else value

    def _metric(self, s: int, name: str):
        """The cache entry behind :meth:`metric`: the array itself, or for
        connected components the :class:`~repro.engine.delta.Components`
        that holds the labels and the squeezed IDs they are over."""
        if name not in METRIC_FUNCTIONS:
            raise ValidationError(
                f"unknown metric {name!r}; available: {sorted(METRIC_FUNCTIONS)}"
            )
        s = check_s_value(s)
        key = self._key(s, name)
        with self._tracer.start_span(
            "engine.metric", {"s": s, "metric": name}
        ) as span:
            cached = self._cache.get(key)
            if cached is not None:
                span.set_attribute("cache_hit", True)
                return cached
            span.set_attribute("cache_hit", False)
            if name == _CC:
                return self._fill(
                    key,
                    self._carry_components(s),
                    lambda: self._components(s),
                    lambda entry: (entry.label, entry.degree, entry.ids, entry.labels),
                )
            graph, _ = self.squeezed_graph(s)
            return self._fill(
                key,
                lambda values, window: delta.unchanged(values, window, s),
                lambda: METRIC_FUNCTIONS[name](graph),
                lambda values: (values,),
            )

    def _components(self, s: int) -> delta.Components:
        """Connected components from scratch: Stage 4, then the kernel."""
        graph, mapping = self.squeezed_graph(s)
        labels = METRIC_FUNCTIONS[_CC](graph)
        return delta.Components.of(graph, mapping, labels, self._graph.num_edges)

    def _carry_components(self, s: int) -> Callable:
        """The carry of a components entry at ``s`` across a window.

        It reads the rows of the window alone, but for a remove's split
        search, which runs over the newest squeezed CSR the journal reaches
        plus the rows since — so no CSR is spliced for it.  The CSR is
        spliced forward here once it trails by :data:`_RESPLICE` updates,
        before the journal forgets it: a miss every few updates then pays
        one splice per ``_RESPLICE`` updates, and a remove never finds it
        gone.  With no CSR cached at all, a search builds one.
        """

        def carry(entry, window):
            graph, since = self._latest(s, "squeezed")
            if graph is not None and len(since) >= _RESPLICE:
                graph, since = self.squeezed_graph(s), ()

            def search_base():
                if graph is None:
                    return (*self.squeezed_graph(s), ())
                return (*graph, since)

            return delta.components(entry, window, s, search_base)

        return carry

    def _served(self, s: int, name: str) -> Tuple[SqueezeResult, np.ndarray]:
        """A metric's values and the mapping of the squeezed IDs they are
        over; for connected components both come from its one entry, the
        one whose labels :meth:`metric` returned unless a concurrent reader
        replaced or evicted it since."""
        values = self.metric(s, name)
        if name != _CC:
            return self.squeezed_graph(s)[1], values
        entry = self._cache.peek(self._key(s, name))
        if entry is None or entry.labels is not values:
            entry = self._metric(s, name)
        return SqueezeResult(new_to_old=entry.ids), entry.labels

    def metric_columns(self, s: int, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """A metric as parallel ``(hyperedge IDs, values)`` columns,
        ascending by *original* hyperedge ID (the cached arrays, re-keyed by
        :meth:`SqueezeResult.columns`, not copies for the caller to keep)."""
        mapping, values = self._served(s, name)
        return mapping.columns(values)

    def metric_by_hyperedge(self, s: int, name: str) -> Dict[int, float]:
        """A metric keyed by *original* hyperedge IDs."""
        mapping, values = self._served(s, name)
        return mapping.by_hyperedge(values)

    def metrics(self, s: int, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Several metrics of the same s, sharing one squeeze."""
        return {name: self.metric(s, name) for name in names}

    def sweep(
        self,
        s_values: Iterable[int],
        metrics: Sequence[str] = (),
    ) -> SweepResult:
        """Batched multi-s query: edge and vertex counts (and metrics) for every s.

        The counts come from the index — a binary search and a size count
        per s — so no line graph is built for them, and the last sweep's
        are kept until the hypergraph changes.  Named metrics are computed
        (or carried) and cached per s, sharing one squeeze across the
        metrics of an s, for later point queries.
        """
        s_list = sweep_thresholds(s_values)
        check_metric_names(metrics)
        start = time.perf_counter()
        result = SweepResult(s_values=s_list)
        with self._tracer.start_span(
            "engine.sweep", {"s_count": len(s_list), "metric_count": len(metrics)}
        ):
            swept = (self.fingerprint(), tuple(s_list))
            last, edge_counts, active_counts = self._swept
            if last != swept:
                index = self.index
                edge_counts = dict(zip(s_list, index.edge_counts(s_list).tolist()))
                active = at_least(np.bincount(index.edge_sizes), s_list)
                active_counts = dict(zip(s_list, active.tolist()))
                self._swept = (swept, edge_counts, active_counts)
            result.edge_counts = dict(edge_counts)
            result.active_counts = dict(active_counts)
            if metrics:
                for s in s_list:
                    result.metrics[s] = self.metrics(s, metrics)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def add_hyperedge(
        self, members: Iterable[int], name: Optional[object] = None
    ) -> int:
        """Append a hyperedge, patching the index and journalling the update.

        Only the overlap row of the new edge is computed (a wedge walk from
        its members); cached results for every ``s > |members|`` provably
        cannot change and are retained under the new fingerprint, the rest
        stay one update behind the journal until a query wants them.

        Returns the ID assigned to the new hyperedge.
        """
        member_arr = np.unique(np.asarray(list(members), dtype=np.int64))
        if member_arr.size and int(member_arr.min()) < 0:
            raise ValidationError("vertex IDs must be non-negative")
        start = time.perf_counter()
        graph = self._graph
        old_fp = graph.fingerprint()
        new_id = graph.num_edges
        pair_ids = pair_weights = row = None
        if self._index is not None:
            pair_ids, pair_weights = row = overlap_counts_for_members(
                graph, member_arr
            )
            self._index.add_hyperedge(
                new_id, member_arr.size, pair_ids, pair_weights
            )
        graph.append(member_arr, name)
        self._incremental_adds += 1
        self._journal_update(old_fp, True, new_id, int(member_arr.size), row)
        self._m_add_seconds.observe(time.perf_counter() - start)
        self._record_add(new_id, member_arr, name, pair_ids, pair_weights)
        return new_id

    def remove_hyperedge(self, edge_id: int) -> None:
        """Remove a hyperedge (tombstoning its ID slot at size 0).

        Keeping the slot preserves every other hyperedge ID, so results for
        ``s > |removed edge|`` — which the edge could never appear in — stay
        valid and are retained in the cache.
        """
        graph = self._graph
        if edge_id < 0 or edge_id >= graph.num_edges:
            raise ValidationError(
                f"hyperedge ID {edge_id} out of range [0, {graph.num_edges})"
            )
        old_size = graph.edge_size(edge_id)
        if old_size == 0:
            return  # already empty: removing it changes nothing
        start = time.perf_counter()
        old_fp = graph.fingerprint()
        row = None
        if self._index is not None:
            # The row being removed: the same wedge walk an add makes,
            # minus the edge's overlap with itself.
            ids, weights = overlap_counts_for_members(
                graph, graph.edge_members(edge_id)
            )
            others = ids != edge_id
            row = ids[others], weights[others]
            self._index.remove_hyperedge(edge_id)
        graph.empty(edge_id)
        self._incremental_removes += 1
        self._journal_update(old_fp, False, edge_id, int(old_size), row)
        self._m_remove_seconds.observe(time.perf_counter() - start)
        self._record_remove(edge_id)

    def _record_add(self, new_id, members, name, pair_ids, pair_weights) -> None:
        """Durability hook: no-op here, WAL-appended by the persistent engine."""

    def _record_remove(self, edge_id) -> None:
        """Durability hook: no-op here, WAL-appended by the persistent engine."""

    def _journal_update(
        self,
        old_fp: str,
        added: bool,
        edge_id: int,
        size: int,
        row: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Journal one applied update and sort the cache by what it did.

        Entries of the superseded hypergraph at ``s > size`` cannot have
        changed (the edge is inactive and pairless there): they are
        *retained* — re-keyed to the new fingerprint now, a line graph with
        its ID-space bound raised after an add (its row is empty at ``s``
        and ``E_s`` unchanged, so the arrays are shared).  The other
        entries are *invalidated*: left in place, one more update behind,
        for :meth:`_fill` to bring forward if a query asks before the
        journal forgets the update.  Dropped instead: entries the journal
        no longer reaches, and every invalidated line graph (``L_s`` is
        recomputed from the index, never carried).  ``row=None`` (the index
        was never built, so nothing was ever cached) empties the journal.
        """
        new_fp = self._graph.fingerprint()
        journalled = row is not None
        if not journalled:
            row = (np.empty(0, dtype=np.int64),) * 2
        _freeze(*row)
        update = Update(old_fp, new_fp, added, edge_id, *row)
        self._journal = (
            (self._journal + (update,))[-_MAX_PENDING:] if journalled else ()
        )
        reachable = {pending.before for pending in self._journal}
        for key in self._cache.keys():
            fp, s, kind = key
            if fp == old_fp and s > size:
                if kind == "line_graph" and added:
                    graph = self._cache.pop(key)
                    graph = SLineGraph.from_canonical(
                        s, graph.edges, graph.weights, edge_id + 1, graph.active_vertices
                    )
                    self._cache.put((new_fp, s, kind), graph)
                else:
                    self._cache.rekey(key, (new_fp, s, kind))
                self._retained += 1
                continue
            if fp == old_fp:
                self._invalidated += 1
            if kind == "line_graph" or fp not in reachable:
                self._cache.pop(key)


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays entering the cache read-only: every reader shares them
    (the wire serves them as they are), so none of them may write through."""
    for array in arrays:
        array.setflags(write=False)


def with_appended_edge(
    h: Hypergraph, members: np.ndarray, name: Optional[object]
) -> Hypergraph:
    """A new hypergraph equal to ``h`` plus one trailing hyperedge.

    Nothing in the library calls it (the engine's own updates go through
    its :class:`~repro.hypergraph.overlay.OverlayHypergraph`): its one
    remaining caller is ``benchmarks/e2e/e2e_layers.py``, and it goes with
    the benchmark change that moves that harness off it (ROADMAP item 3).
    Both CSRs are extended in place of a rebuild: the new edge has the
    largest ID, so in the vertex→edge CSR it lands at the *end* of each
    member's row — one ``np.insert`` plus an ``indptr`` shift, no transpose.
    """
    edges = h.edges_csr
    vertices = h.vertices_csr
    new_id = h.num_edges
    num_vertices = h.num_vertices
    if members.size:
        num_vertices = max(num_vertices, int(members.max()) + 1)
    vertex_indptr = vertices.indptr
    if num_vertices > h.num_vertices:  # brand-new vertices: empty rows
        vertex_indptr = np.concatenate(
            [
                vertex_indptr,
                np.full(num_vertices - h.num_vertices, vertex_indptr[-1]),
            ]
        )
    edge_names = h.edge_names
    if edge_names is not None:
        edge_names = edge_names + [name if name is not None else str(new_id)]
    vertex_names = h.vertex_names
    if vertex_names is not None and num_vertices > h.num_vertices:
        vertex_names = vertex_names + [str(v) for v in range(h.num_vertices, num_vertices)]
    return Hypergraph(
        edges=CSRMatrix(
            indptr=np.append(edges.indptr, edges.indptr[-1] + members.size),
            indices=np.concatenate([edges.indices, members]),
            num_cols=num_vertices,
        ),
        vertices=CSRMatrix(
            indptr=shifted_indptr(vertex_indptr, members, 1),
            indices=np.insert(vertices.indices, vertex_indptr[members + 1], new_id),
            num_cols=new_id + 1,
        ),
        edge_names=edge_names,
        vertex_names=vertex_names,
    )

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
  re-keyed to the new fingerprint at update time.
* **Journalled.**  Every update appends one :class:`~repro.engine.delta.Update`
  to a bounded journal — fingerprint before → after, add or remove, the
  edge's ID and size, and its overlap row (the one
  :func:`~repro.engine.index.overlap_counts_for_members` returns; O(row), no
  copy proportional to ``L_s``).  Entries at ``s <= k`` are left where
  they are, one more update behind; the update itself patches nothing.
  One exception keeps memory where it was: a line graph whose squeezed
  form is cached under the same fingerprint is dropped, not left behind —
  Stages 4-5 are served from the squeezed entry, and holding two
  generations of both forms is what would move the process's peak RSS.
* **Patched at read time.**  A miss at the current fingerprint that finds
  an ancestor entry within the journal walks it forward one update at a
  time with the array kernels of :mod:`repro.engine.delta` — ``L_s`` takes
  the row's pairs (or loses them), the squeezed CSR gains (or loses) one
  vertex, connected-component labels merge under an add — caching each
  step's result and only then dropping the entry it came from.  Every
  other metric is carried across updates whose row is empty at its ``s``.
* **Fallbacks.**  The from-scratch path is the cold miss, and what a
  kernel defers to when a delta is not cheap: an add that gives a
  previously isolated hyperedge its first neighbour, or a remove that
  takes a neighbour's last one, shifts the squeeze, so Stage 4 is rebuilt
  from the patched ``L_s``; a remove whose row is not empty re-runs
  connected components on the patched CSR; any other metric is recomputed
  once a pending row reaches its ``s``.  An entry more than
  :data:`_MAX_PENDING` updates behind, or updated before the index (and so
  an overlap row) existed, is dropped and recomputed on demand.

The contract is byte equality: a carried value has the ``tobytes()``,
dtype, shape and C order of the recomputed one, and is read-only
(``tests/properties/test_property_delta_cache.py``).  Concurrency: updates
are the single writer's, so readers see the journal as an immutable tuple;
two readers that miss the same key may both patch the same ancestor — the
results are identical, the second ``put`` wins, and the ancestor is popped
after the ``put``, so the later reader finds one of the two or, at worst,
recomputes the same bytes.

The immutable :class:`Hypergraph` is refreshed incrementally too: both of
its CSRs are extended (or cut) in place of a transpose, and its fingerprint
hashes the already-sorted rows without re-sorting them — what remains per
update is array copies and one SHA-256 over the incidences, no sort and no
rebuild.
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
from repro.engine.index import BUILD_ALGORITHM, OverlapIndex, overlap_counts_for_members
from repro.graph.graph import Graph
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
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
    #: declined: the squeeze shifted, a vertex left a component, ...).
    delta_fallbacks: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: Most distinct thresholds one sweep may name.  Every value costs a line
#: graph and a cache entry, so an unbounded request (``s_max = 10**9`` fits
#: a 40-byte frame) would exhaust memory; the paper's sweeps stop at 1024.
MAX_SWEEP_THRESHOLDS = 4096

#: Most updates a cached entry may trail the hypergraph by and still be
#: brought forward; an entry further behind is dropped and its next query
#: recomputes.  Measured on the served fixture (livejournal x2, 215k pairs
#: at s = 1; ``benchmarks/bench_delta_miss.py``): an s = 1 ``metric`` miss
#: k adds behind costs 2.2 / 3.7 / 6.0 / 8.2 ms at k = 1..4 against a
#: 24-30 ms recompute (a remove in the walk adds a ~8 ms CC re-run), so
#: four steps are still a third of a recompute; the bound is kept this
#: short because every entry left behind is memory held for a query that
#: may never come.
_MAX_PENDING = 4


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
    #: ``s -> L_s`` (the same objects held by the engine cache).
    line_graphs: Dict[int, SLineGraph] = field(default_factory=dict)
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
        self._h = h
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

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        path,
        hypergraph: Optional[Hypergraph] = None,
        create: bool = False,
    ) -> "QueryEngine":
        """Open (or build) a persistent store and serve queries from it.

        Parameters
        ----------
        path:
            Store directory (see :class:`repro.store.IndexStore`).
        hypergraph:
            The hypergraph the engine should serve.  Optional when the
            store saved its own copy; required to ``create``.  A store
            that describes a *different* hypergraph raises
            :class:`repro.store.FingerprintMismatchError`.
        create:
            Build the store when ``path`` holds no snapshot yet.

        Returns a :class:`repro.store.PersistentQueryEngine` — it serves
        out-of-core from mmap'd shards, and updates are WAL-logged and
        survive the process.
        """
        from repro.store import IndexStore, PersistentQueryEngine

        if IndexStore.exists(path):
            return PersistentQueryEngine.open(path, hypergraph=hypergraph)
        if not create:
            raise ValidationError(f"no snapshot at {path}; pass create=True to build one")
        if hypergraph is None:
            raise ValidationError("building a store requires a hypergraph")
        return PersistentQueryEngine.build(hypergraph, path)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def hypergraph(self) -> Hypergraph:
        """The current (possibly incrementally updated) hypergraph."""
        return self._h

    @property
    def index(self) -> OverlapIndex:
        """The overlap index, built lazily on first access."""
        if self._index is None:
            self._index = OverlapIndex.build(self._h, algorithm=self.algorithm)
            self._index_builds += 1
        return self._index

    def fingerprint(self) -> str:
        """Content fingerprint of the current hypergraph (the cache-key prefix)."""
        return self._h.fingerprint()

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
        return (self._h.fingerprint(), int(s), kind)

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

    def _fill(
        self,
        key: Tuple[str, int, str],
        carry: Callable,
        compute: Callable,
        arrays: Callable,
        whole_journal: bool = False,
    ):
        """Cache and return the value of ``key`` after a miss.

        A cached ancestor within the journal is brought forward by
        ``carry(value, updates)``; with no ancestor, or when ``carry``
        declines (returns ``None``), ``compute()`` builds the value from
        scratch.  ``arrays(value)`` names the arrays to freeze.

        The walk is one update at a time — each step caches its result
        under that update's fingerprint and only then drops the entry it
        came from — so two generations of a large value are alive at once,
        never three, and a concurrent reader of the same key finds an
        ancestor at every moment (or recomputes the same bytes).
        ``whole_journal`` hands ``carry`` all pending updates in one call
        instead, for a kernel that has to judge them together.
        """

        def publish(at, value):
            _freeze(*arrays(value))
            self._cache.put(at, value)

        behind, value, pending = self._ancestor(key)
        if behind is not None:
            # zip(pending): one 1-tuple per update.
            for updates in [pending] if whole_journal else zip(pending):
                value = carry(value, updates)
                if value is None:
                    # No reader can do better with it: release it ahead of
                    # the rebuild's temporaries, not after them.
                    self._cache.pop(behind)
                    break
                ahead = (updates[-1].after,) + key[1:]
                publish(ahead, value)
                self._cache.pop(behind)
                behind = ahead
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
        """``L_s(H)`` in original hyperedge IDs (cached threshold view)."""
        s = check_s_value(s)
        key = self._key(s, "line_graph")
        with self._tracer.start_span("engine.line_graph", {"s": s}) as span:
            cached = self._cache.get(key)
            if cached is not None:
                span.set_attribute("cache_hit", True)
                return cached
            span.set_attribute("cache_hit", False)
            return self._fill(
                key,
                lambda graph, updates: delta.line_graph(graph, *updates),
                lambda: self.index.line_graph(s),
                lambda graph: (graph.edges, graph.weights, graph.active_vertices),
            )

    def squeezed_graph(self, s: int) -> Tuple[Graph, SqueezeResult]:
        """Stage-4 view of ``L_s``: the squeezed CSR graph plus ID mapping.

        Cached per s so every metric of the same s shares one squeeze.
        """
        s = check_s_value(s)
        key = self._key(s, "squeezed")
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def compute():
            squeezed_line, mapping = self.line_graph(s).squeeze()
            return squeezed_line.to_graph(squeezed=False), mapping

        return self._fill(
            key,
            # None when the update shifts the squeeze: rebuild Stage 4.
            lambda value, updates: delta.squeezed(*value, *updates, s),
            compute,
            lambda value: (
                value[0].indptr,
                value[0].indices,
                value[0].weights,
                value[1].new_to_old,
            ),
        )

    def metric(self, s: int, name: str) -> np.ndarray:
        """A Stage-5 metric of ``L_s`` over squeezed vertex IDs (cached)."""
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
            graph, mapping = self.squeezed_graph(s)
            if name == "connected_components":

                def carry(labels, pending):
                    return delta.component_labels(
                        labels, mapping.new_to_old, pending, s
                    )

            else:

                def carry(values, pending):
                    return delta.unchanged(values, pending, s)

            def compute():
                try:
                    return METRIC_FUNCTIONS[name](graph)
                finally:
                    # As large as the graph itself: shared by the sources
                    # of this metric, not held in the cache for the next.
                    graph.release_structure()

            return self._fill(
                key, carry, compute, lambda values: (values,), whole_journal=True
            )

    def metric_columns(self, s: int, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """A metric as parallel ``(hyperedge IDs, values)`` columns,
        ascending by *original* hyperedge ID (the cached arrays, re-keyed by
        :meth:`SqueezeResult.columns`, not copies for the caller to keep)."""
        values = self.metric(s, name)
        _, mapping = self.squeezed_graph(s)
        return mapping.columns(values)

    def metric_by_hyperedge(self, s: int, name: str) -> Dict[int, float]:
        """A metric keyed by *original* hyperedge IDs."""
        ids, values = self.metric_columns(s, name)
        return dict(zip(ids.tolist(), values.tolist()))

    def metrics(self, s: int, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Several metrics of the same s, sharing one squeeze."""
        return {name: self.metric(s, name) for name in names}

    def sweep(
        self,
        s_values: Iterable[int],
        metrics: Sequence[str] = (),
    ) -> SweepResult:
        """Batched multi-s query: line graphs (and metrics) for every s.

        The index is built at most once; each s is a binary-search slice.
        Squeezing work is shared per s across the requested metrics, and all
        intermediate results land in the cache for later point queries.
        """
        s_list = sweep_thresholds(s_values)
        check_metric_names(metrics)
        start = time.perf_counter()
        result = SweepResult(s_values=s_list)
        with self._tracer.start_span(
            "engine.sweep", {"s_count": len(s_list), "metric_count": len(metrics)}
        ):
            for s in s_list:
                graph = self.line_graph(s)
                result.line_graphs[s] = graph
                result.edge_counts[s] = graph.num_edges
                result.active_counts[s] = graph.num_active_vertices
                if metrics:
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
        old_fp = self._h.fingerprint()
        new_id = self._h.num_edges
        pair_ids = pair_weights = row = None
        if self._index is not None:
            pair_ids, pair_weights = row = overlap_counts_for_members(
                self._h, member_arr
            )
            self._index.add_hyperedge(
                new_id, member_arr.size, pair_ids, pair_weights
            )
        self._h = with_appended_edge(self._h, member_arr, name)
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
        if edge_id < 0 or edge_id >= self._h.num_edges:
            raise ValidationError(
                f"hyperedge ID {edge_id} out of range [0, {self._h.num_edges})"
            )
        old_size = self._h.edge_size(edge_id)
        if old_size == 0:
            return  # already empty: removing it changes nothing
        start = time.perf_counter()
        old_fp = self._h.fingerprint()
        row = None
        if self._index is not None:
            # The row being removed: the same wedge walk an add makes,
            # minus the edge's overlap with itself.
            ids, weights = overlap_counts_for_members(
                self._h, self._h.edge_members(edge_id)
            )
            others = ids != edge_id
            row = ids[others], weights[others]
            self._index.remove_hyperedge(edge_id)
        self._h = with_emptied_edge(self._h, edge_id)
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
        its ID-space bound refreshed so it equals a full rebuild after an
        add.  The other entries are *invalidated*: left in place, one more
        update behind, for :meth:`_fill` to bring forward if a query asks
        before the journal forgets the update.  Dropped instead: entries
        the journal no longer reaches, and a line graph whose squeezed
        form sits beside it (the squeezed entry serves Stages 4-5; keeping
        both behind doubles the bytes held for a query that may not come).
        ``row=None`` (the index was never built, so nothing was ever
        cached) empties the journal.
        """
        new_fp = self._h.fingerprint()
        journalled = row is not None
        if not journalled:
            row = (np.empty(0, dtype=np.int64),) * 2
        _freeze(*row)
        update = Update(old_fp, new_fp, added, edge_id, size, *row)
        self._journal = (
            (self._journal + (update,))[-_MAX_PENDING:] if journalled else ()
        )
        reachable = {pending.before for pending in self._journal}
        for key in self._cache.keys():
            fp, s, kind = key
            if fp == old_fp and s > size:
                if kind == "line_graph" and added:
                    # The canonical arrays are shared, not copied.
                    graph = delta.line_graph(self._cache.pop(key), update)
                    self._cache.put((new_fp, s, kind), graph)
                else:
                    self._cache.rekey(key, (new_fp, s, kind))
                self._retained += 1
                continue
            if fp == old_fp:
                self._invalidated += 1
            if fp not in reachable or (
                kind == "line_graph" and (fp, s, "squeezed") in self._cache
            ):
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
        edge_names = edge_names + [name if name is not None else new_id]
    vertex_names = h.vertex_names
    if vertex_names is not None and num_vertices > h.num_vertices:
        vertex_names = vertex_names + list(range(h.num_vertices, num_vertices))
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


def with_emptied_edge(h: Hypergraph, edge_id: int) -> Hypergraph:
    """A new hypergraph equal to ``h`` with one hyperedge emptied in place.

    The mirror image of :func:`with_appended_edge`: the edge's row is cut
    out of the edge→vertex CSR and its ID out of each member's
    vertex→edge row, again without a transpose.
    """
    edges = h.edges_csr
    vertices = h.vertices_csr
    start, stop = int(edges.indptr[edge_id]), int(edges.indptr[edge_id + 1])
    members = edges.indices[start:stop]
    edge_indptr = edges.indptr.copy()
    edge_indptr[edge_id + 1 :] -= stop - start
    return Hypergraph(
        edges=CSRMatrix(
            indptr=edge_indptr,
            indices=np.delete(edges.indices, slice(start, stop)),
            num_cols=edges.num_cols,
        ),
        vertices=CSRMatrix(
            indptr=shifted_indptr(vertices.indptr, members, -1),
            indices=np.delete(
                vertices.indices, np.flatnonzero(vertices.indices == edge_id)
            ),
            num_cols=vertices.num_cols,
        ),
        edge_names=h.edge_names,
        vertex_names=h.vertex_names,
    )

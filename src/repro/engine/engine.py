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
— and invalidate only cache entries whose result could actually change: a
hyperedge of size ``k`` can never appear in — nor contribute a pair to —
any ``L_s`` with ``s > k``, so those entries are re-keyed to the new
fingerprint instead of being recomputed.  The immutable
:class:`Hypergraph` is refreshed incrementally too: both of its CSRs are
extended (or cut) in place of a transpose, and its fingerprint hashes the
already-sorted rows without re-sorting them — what remains per update is
array copies and one SHA-256 over the incidences, no sort and no rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import METRIC_FUNCTIONS, check_metric_names
from repro.core.slinegraph import SLineGraph
from repro.engine.cache import LRUCache
from repro.engine.index import BUILD_ALGORITHM, OverlapIndex, overlap_counts_for_members
from repro.graph.connected_components import num_components
from repro.graph.graph import Graph
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.preprocessing import SqueezeResult
from repro.obs import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.executor import ParallelConfig
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
    invalidated_entries: int = 0
    retained_entries: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: Most distinct thresholds one sweep may name.  Every value costs a line
#: graph and a cache entry, so an unbounded request (``s_max = 10**9`` fits
#: a 40-byte frame) would exhaust memory; the paper's sweeps stop at 1024.
MAX_SWEEP_THRESHOLDS = 4096


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
        for key in ("connected_components", "lpcc"):
            values = self.metrics.get(s, {}).get(key)
            if values is not None:
                return num_components(values)
        return None


class QueryEngine:
    """Compute-once/serve-many facade over a hypergraph's overlap structure.

    Parameters
    ----------
    h:
        The hypergraph to serve queries for.
    algorithm:
        Stage-3 algorithm used for the one-off index build (and rebuilds).
    config:
        Parallel configuration forwarded to the index build.
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
        config: Optional[ParallelConfig] = None,
        cache_size: int = 256,
        index: Optional[OverlapIndex] = None,
    ) -> None:
        if not isinstance(h, Hypergraph):
            raise ValidationError("QueryEngine requires a Hypergraph")
        self._h = h
        self.algorithm = algorithm
        self.config = config or ParallelConfig()
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

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        path,
        hypergraph: Optional[Hypergraph] = None,
        create: bool = False,
        on_mismatch: str = "raise",
        algorithm: str = BUILD_ALGORITHM,
        num_shards: int = 4,
        config: Optional[ParallelConfig] = None,
        **kwargs,
    ) -> "QueryEngine":
        """Open (or build) a persistent store and serve queries from it.

        Parameters
        ----------
        path:
            Store directory (see :class:`repro.store.IndexStore`).
        hypergraph:
            The hypergraph the engine should serve.  Optional when the
            store saved its own copy; required to ``create`` or rebuild.
        create:
            Build the store when ``path`` holds no snapshot yet.
        on_mismatch:
            What to do when the store describes a *different* hypergraph
            than the one supplied: ``"raise"`` (default) raises
            :class:`repro.store.FingerprintMismatchError`; ``"rebuild"``
            replaces the snapshot with one for ``hypergraph``.

        Returns a :class:`repro.store.PersistentQueryEngine` — it serves
        out-of-core from mmap'd shards, and updates are WAL-logged and
        survive the process.
        """
        from repro.store import (
            FingerprintMismatchError,
            IndexStore,
            PersistentQueryEngine,
        )

        if on_mismatch not in ("raise", "rebuild"):
            raise ValidationError(
                f"on_mismatch must be 'raise' or 'rebuild', got {on_mismatch!r}"
            )
        if not IndexStore.exists(path):
            if not create:
                raise ValidationError(
                    f"no snapshot at {path}; pass create=True to build one"
                )
            if hypergraph is None:
                raise ValidationError("building a store requires a hypergraph")
            return PersistentQueryEngine.build(
                hypergraph,
                path,
                algorithm=algorithm,
                num_shards=num_shards,
                config=config,
                **kwargs,
            )
        try:
            return PersistentQueryEngine.open(
                path, hypergraph=hypergraph, config=config, **kwargs
            )
        except FingerprintMismatchError:
            if on_mismatch != "rebuild" or hypergraph is None:
                raise
            return PersistentQueryEngine.build(
                hypergraph,
                path,
                algorithm=algorithm,
                num_shards=num_shards,
                config=config,
                **kwargs,
            )

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
            self._index = OverlapIndex.build(
                self._h, algorithm=self.algorithm, config=self.config
            )
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
        )

    def max_s(self) -> int:
        """Largest s with a non-empty s-line graph."""
        return self.index.max_weight

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _key(self, s: int, kind: str) -> Tuple[str, int, str]:
        return (self._h.fingerprint(), int(s), kind)

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
            graph = self.index.line_graph(s)
            _freeze(graph.edges, graph.weights, graph.active_vertices)
            self._cache.put(key, graph)
            return graph

    #: ``extract(s)`` is the service-facing name for a threshold view.
    extract = line_graph

    def squeezed_graph(self, s: int) -> Tuple[Graph, SqueezeResult]:
        """Stage-4 view of ``L_s``: the squeezed CSR graph plus ID mapping.

        Cached per s so every metric of the same s shares one squeeze.
        """
        s = check_s_value(s)
        key = self._key(s, "squeezed")
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        squeezed_line, mapping = self.line_graph(s).squeeze()
        graph = squeezed_line.to_graph(squeezed=False)
        _freeze(graph.indptr, graph.indices, graph.weights, mapping.new_to_old)
        self._cache.put(key, (graph, mapping))
        return graph, mapping

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
            graph, _ = self.squeezed_graph(s)
            values = METRIC_FUNCTIONS[name](graph)
            _freeze(values)
            self._cache.put(key, values)
            return values

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
        """Append a hyperedge, patching the index and cache incrementally.

        Only the overlap row of the new edge is computed (a wedge walk from
        its members); cached results for every ``s > |members|`` provably
        cannot change and are retained under the new fingerprint.

        Returns the ID assigned to the new hyperedge.
        """
        member_arr = np.unique(np.asarray(list(members), dtype=np.int64))
        if member_arr.size and int(member_arr.min()) < 0:
            raise ValidationError("vertex IDs must be non-negative")
        start = time.perf_counter()
        old_fp = self._h.fingerprint()
        new_id = self._h.num_edges
        pair_ids = pair_weights = None
        if self._index is not None:
            pair_ids, pair_weights = overlap_counts_for_members(self._h, member_arr)
            self._index.add_hyperedge(
                new_id, member_arr.size, pair_ids, pair_weights
            )
        self._h = with_appended_edge(self._h, member_arr, name)
        self._incremental_adds += 1
        self._migrate_cache(old_fp, threshold_s=int(member_arr.size))
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
        if self._index is not None:
            self._index.remove_hyperedge(edge_id)
        self._h = with_emptied_edge(self._h, edge_id)
        self._incremental_removes += 1
        self._migrate_cache(old_fp, threshold_s=int(old_size))
        self._m_remove_seconds.observe(time.perf_counter() - start)
        self._record_remove(edge_id)

    def _record_add(self, new_id, members, name, pair_ids, pair_weights) -> None:
        """Durability hook: no-op here, WAL-appended by the persistent engine."""

    def _record_remove(self, edge_id) -> None:
        """Durability hook: no-op here, WAL-appended by the persistent engine."""

    def _migrate_cache(self, old_fp: str, threshold_s: int) -> None:
        """Selective invalidation after an update affecting sizes ``<= threshold_s``.

        Entries keyed at ``s > threshold_s`` cannot have changed (the edge
        involved has size ``<= threshold_s``, so it is inactive and pairless
        at those thresholds): they are re-keyed to the new fingerprint.
        Everything else under the old fingerprint is dropped.  Retained line
        graphs get their ID-space bound refreshed so they compare equal to a
        full rebuild after ``add_hyperedge`` grew the hyperedge count.
        """
        new_fp = self._h.fingerprint()
        num_edges = self._h.num_edges
        for key in self._cache.keys():
            fp, s, kind = key
            if fp != old_fp:
                continue
            if s > threshold_s:
                if kind == "line_graph":
                    # peek: bookkeeping must not inflate hit/miss stats nor
                    # promote the entry in the LRU order.
                    graph = self._cache.peek(key)
                    if graph.num_hyperedges != num_edges:
                        # The ID space only grows (add_hyperedge); the
                        # canonical arrays are shared, not copied.
                        graph = SLineGraph.from_canonical(
                            graph.s,
                            graph.edges,
                            graph.weights,
                            num_edges,
                            graph.active_vertices,
                        )
                        self._cache.pop(key)
                        self._cache.put((new_fp, s, kind), graph)
                    else:
                        self._cache.rekey(key, (new_fp, s, kind))
                else:
                    self._cache.rekey(key, (new_fp, s, kind))
                self._retained += 1
            else:
                self._cache.pop(key)
                self._invalidated += 1


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays entering the cache read-only: every reader shares them
    (the wire serves them as they are), so none of them may write through."""
    for array in arrays:
        array.setflags(write=False)


def _shifted_indptr(indptr: np.ndarray, rows: np.ndarray, step: int) -> np.ndarray:
    """``indptr`` after every row in ``rows`` grew (or shrank) by ``step`` entries."""
    shifted = indptr.copy()
    shifted[1:] += step * np.cumsum(np.bincount(rows, minlength=indptr.size - 1))
    return shifted


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
            indptr=_shifted_indptr(vertex_indptr, members, 1),
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
            indptr=_shifted_indptr(vertices.indptr, members, -1),
            indices=np.delete(
                vertices.indices, np.flatnonzero(vertices.indices == edge_id)
            ),
            num_cols=vertices.num_cols,
        ),
        edge_names=h.edge_names,
        vertex_names=h.vertex_names,
    )

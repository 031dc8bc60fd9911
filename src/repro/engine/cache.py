"""A small thread-safe LRU result cache for the query engine.

Keys are ``(hypergraph fingerprint, s, kind)`` tuples where ``kind`` names
what is cached ("line_graph", "squeezed", or a Stage-5 metric name).  The
fingerprint component keeps entries of superseded hypergraph versions from
being served as they are; after an incremental update the engine *re-keys*
the entries that provably cannot have changed and leaves the others under
their old fingerprint, where a later miss finds them through the engine's
update journal and brings them forward — ``peek`` the ancestor, ``put``
the successor, then ``pop`` the ancestor (see :mod:`repro.engine.engine`).
The cache is therefore also the bookkeeping structure of that
carry-forward; entries the journal no longer reaches are popped by the
next update.

Concurrency contract
--------------------
Every public method is atomic (an internal re-entrant lock serialises
mutations of the ordering dict and the counters), so any number of threads
may ``get``/``put``/``peek`` concurrently — the prerequisite for the
multi-threaded :class:`repro.service.QueryService`.  Two guarantees are
deliberately *not* made:

* ``get`` then ``put`` is not one atomic operation: two threads that miss
  the same key may both compute it and both ``put`` — the second insert
  wins.  Engine results are deterministic for a key, so this only costs a
  duplicated computation, never an inconsistent cache.
* Multi-key passes (the engine's ``_journal_update`` over :meth:`keys`,
  a reader's ``peek`` → ``put`` → ``pop`` of an ancestor) are not atomic
  as a whole; callers that need a consistent multi-entry view must
  serialise against writers externally (the service layer's
  readers-writer lock does exactly this for incremental updates).  Two
  readers may bring the same ancestor forward: both compute the same
  bytes, the second ``put`` wins and the second ``pop`` finds nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, List

from repro.obs import get_registry
from repro.utils.validation import ValidationError

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


class LRUCache:
    """Least-recently-used mapping with hit/miss/eviction counters.

    ``metrics_label`` names the cache in the process metrics registry:
    hits/misses/evictions are reported under
    ``repro_cache_*_total{cache=<label>}`` — bound once at construction
    so the per-lookup cost is a single striped counter increment (a
    shared no-op under a ``NullRegistry``).
    """

    def __init__(self, maxsize: int = 256, *, metrics_label: str) -> None:
        if maxsize < 1:
            raise ValidationError("cache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = get_registry()
        self._m_hits = registry.counter(
            "repro_cache_hits_total", "Cache lookups served from cache.", ("cache",)
        ).labels(cache=metrics_label)
        self._m_misses = registry.counter(
            "repro_cache_misses_total", "Cache lookups that missed.", ("cache",)
        ).labels(cache=metrics_label)
        self._m_evictions = registry.counter(
            "repro_cache_evictions_total",
            "Entries evicted by the LRU policy.",
            ("cache",),
        ).labels(cache=metrics_label)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or counters."""
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most recently used."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self._m_misses.inc()
                return default
            self._data.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` with *no* side effects.

        Unlike :meth:`get`, peeking neither marks the entry recently used
        nor counts a hit/miss — it is for bookkeeping (the engine looks
        for an ancestor entry to bring forward after a miss, which must not
        distort the service-traffic statistics or the LRU order).
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return default
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key`` (no counter updates)."""
        with self._lock:
            return self._data.pop(key, default)

    def counters(self) -> dict:
        """Atomic snapshot of hits/misses/evictions/entries (one lock hold).

        Reading the public counter attributes one by one can interleave
        with a concurrent ``get``/``put`` and report a hit/miss split that
        never existed; stats paths use this instead.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
            }

    def keys(self) -> List[Hashable]:
        """Snapshot of the cached keys, LRU first."""
        with self._lock:
            return list(self._data.keys())

    def rekey(self, old_key: Hashable, new_key: Hashable) -> bool:
        """Move an entry to a new key preserving its value; False if absent."""
        with self._lock:
            value = self._data.pop(old_key, _MISSING)
            if value is _MISSING:
                return False
            self._data[new_key] = value
            return True

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self._data.clear()

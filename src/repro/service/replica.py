"""Read replicas: hot-reloading, read-only views of a shared store.

A :class:`ReadReplica` wraps a read-only
:class:`~repro.store.PersistentQueryEngine` and keeps it *current* while a
single writer (in this or another process) appends updates and compacts the
store.  Staleness is detected by polling the store's cheap change token
(``(manifest generation, WAL byte length)`` — see
:meth:`repro.store.IndexStore.state_token`); on change the replica opens a
fresh engine against the new state and swaps it in atomically.

In-flight queries are never dropped by a swap: each query captures the
engine reference it started with, and POSIX keeps the old generation's
mmap'd shard files readable through existing handles even after the
compactor sweeps (unlinks) them.  A query that first *touches* a swept
shard after the sweep gets a store error instead — the replica treats that
as a stale-view signal, force-reloads, and retries the query once against
the new generation.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import SweepResult, sweep_thresholds
from repro.graph.connected_components import num_components
from repro.store.format import PathLike, StoreError
from repro.store.persistent import PersistentQueryEngine
from repro.store.store import IndexStore

#: Attempts to open the store before giving up (a writer's compaction can
#: race the manifest/shard reads of an open; each retry re-reads fresh).
_OPEN_RETRIES = 6
_OPEN_RETRY_SLEEP = 0.05


class ReadReplica:
    """Hot-reloading read-only query engine over a shared store.

    Parameters
    ----------
    path:
        Store directory (shared with the writer).
    poll_interval:
        Minimum seconds between staleness checks; ``0`` (default) checks
        before every query.  Between checks, queries are served from the
        current engine without touching the manifest.
    max_resident_shards / cache_size:
        Forwarded to the underlying engine.
    """

    def __init__(
        self,
        path: PathLike,
        poll_interval: float = 0.0,
        max_resident_shards: Optional[int] = None,
        cache_size: int = 256,
    ) -> None:
        self._path = str(path)
        self._poll_interval = float(poll_interval)
        self._max_resident_shards = max_resident_shards
        self._cache_size = int(cache_size)
        self._swap_lock = threading.Lock()
        self._closed = False
        #: Completed hot reloads (observability / tests).
        self.reloads = 0
        self._engine, self._token = self._open()
        self._last_check = time.monotonic()

    # ------------------------------------------------------------------ #
    # Opening / refreshing
    # ------------------------------------------------------------------ #
    def _open(self) -> Tuple[PersistentQueryEngine, Tuple[int, int]]:
        """Open a fresh read-only engine, retrying through writer races.

        The change token is read *before* the store, so any write landing
        during the open makes the next poll's token differ and triggers a
        (cheap, already-warm) reload rather than being missed.
        """
        last_error: Optional[Exception] = None
        for _ in range(_OPEN_RETRIES):
            try:
                token = IndexStore.state_token(self._path)
                engine = PersistentQueryEngine(
                    IndexStore.open(self._path, read_only=True),
                    max_resident_shards=self._max_resident_shards,
                    cache_size=self._cache_size,
                )
                return engine, token
            except (StoreError, OSError) as exc:
                last_error = exc
                time.sleep(_OPEN_RETRY_SLEEP)
        raise StoreError(
            f"read replica could not open store at {self._path} after "
            f"{_OPEN_RETRIES} attempts: {last_error}"
        )

    def refresh(self, force: bool = False) -> bool:
        """Reload the engine if the store changed; True when it did.

        ``force=True`` skips the token comparison (used after a query hit
        a swept shard file).  Queries running on the superseded engine
        finish undisturbed — the swap only redirects *new* queries.

        Installs are monotonic in the snapshot *generation*: two racing
        refreshes can open different states, and the one that opened a
        superseded generation must not overwrite the newer one (clients
        would observe a compaction rolling back).  WAL byte counts are
        deliberately *not* ordered — a restarted writer legitimately
        shrinks the log (torn-tail truncation), and refusing smaller
        byte counts would wedge the replica on its stale view.

        A freshly opened engine that is *not* installed (lost the race,
        equal token, replica closed) has no queries running on it and is
        closed immediately — without this, every superseded refresh leaks
        the loser's mmap'd shard handles.  The *replaced* engine is never
        closed here: in-flight queries may still hold it (see
        :meth:`close`).
        """
        with self._swap_lock:
            if self._closed:
                return False
            token_now = self._token
        if not force and IndexStore.state_token(self._path) == token_now:
            return False
        engine, token = self._open()
        superseded: Optional[PersistentQueryEngine] = None
        try:
            with self._swap_lock:
                if self._closed or token[0] < self._token[0]:
                    # Superseded by a newer generation (or closed).
                    superseded = engine
                    return False
                if token == self._token and not force:
                    # A concurrent refresh already installed this state.
                    superseded = engine
                    return False
                self._engine = engine
                self._token = token
                self.reloads += 1
            return True
        finally:
            if superseded is not None:
                superseded.close()

    #: What queries' polls and stale-view retries call: this class's own
    #: ``refresh``, even where a subclass widens the public one with a sync.
    _reload = refresh

    def _current_engine(self) -> PersistentQueryEngine:
        if self._closed:
            raise StoreError(f"read replica for {self._path} is closed")
        now = time.monotonic()
        if now - self._last_check >= self._poll_interval:
            self._last_check = now
            try:
                self._reload()
            except (StoreError, OSError):
                # Keep serving the last good view through transient races
                # (racing compaction, ESTALE/EACCES reading the manifest);
                # the next poll (or a forced refresh on error) retries.
                pass
        return self.engine

    def _serve(self, method: str, *args, **kwargs):
        engine = self._current_engine()
        try:
            return getattr(engine, method)(*args, **kwargs)
        except (StoreError, OSError):
            # Stale view: a compaction swept shard files this lazily
            # mmap'ing engine had not touched yet.  Reload and retry once.
            self._reload(force=True)
            return getattr(self.engine, method)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def generation(self) -> int:
        """Snapshot generation of the currently served view."""
        return self.engine.store.manifest.generation

    @property
    def engine(self) -> PersistentQueryEngine:
        """The currently served (read-only) engine."""
        with self._swap_lock:
            return self._engine

    def readiness(
        self, max_generation_lag: Optional[int] = 1
    ) -> Tuple[bool, Dict[str, object]]:
        """``(ready, detail)`` for the ``/readyz`` probe: ready while open.

        A shared-filesystem replica has no peer to fall behind, so
        ``max_generation_lag`` only matters to the remote-fed subclass.
        """
        detail: Dict[str, object] = {"role": "replica", "generation": int(self.generation)}
        if self._closed:
            detail["reason"] = "closed"
            return False, detail
        return True, detail

    # ------------------------------------------------------------------ #
    # Queries (each checks staleness per poll_interval, then serves)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        return self._serve("fingerprint")

    def max_s(self) -> int:
        return self._serve("max_s")

    def line_graph(self, s: int):
        return self._serve("line_graph", s)

    def metric(self, s: int, name: str) -> np.ndarray:
        return self._serve("metric", s, name)

    def metric_columns(self, s: int, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self._serve("metric_columns", s, name)

    def metric_by_hyperedge(self, s: int, name: str) -> Dict[int, float]:
        return self._serve("metric_by_hyperedge", s, name)

    def sweep(self, s_values: Iterable[int], metrics: Sequence[str] = ()) -> SweepResult:
        # Materialised (a retry re-reads it), but only up to the engine's bound.
        return self._serve("sweep", sweep_thresholds(s_values), metrics=metrics)

    def num_components(self, s: int) -> int:
        """Number of s-connected components among non-isolated hyperedges."""
        return num_components(self.metric(s, "connected_components"))

    def close(self) -> None:
        """Stop serving: new queries raise a clear :class:`StoreError`.

        The last engine's shard mmaps are released now; queries already
        running on it finish undisturbed (closing a
        :class:`~repro.store.ShardedIndex` is not terminal — they re-open
        the shards they still touch).
        """
        with self._swap_lock:
            self._closed = True
            self._engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ", closed" if self._closed else ""
        return (
            f"{type(self).__name__}(path={self._path!r}, "
            f"generation={self.generation}, reloads={self.reloads}{state})"
        )

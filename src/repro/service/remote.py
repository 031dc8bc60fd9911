"""Remote read replicas: serve a store that lives on another machine.

:class:`RemoteReadReplica` closes the loop the replication ops opened: it
bootstraps a local mirror of a remote store **over the socket protocol
alone** (no shared filesystem) and keeps serving from it exactly like a
local :class:`~repro.service.ReadReplica` — because it *contains* one.

The moving parts:

* a :class:`~repro.service.transport.client.ServiceClient` connected to
  any serving peer (the writer's socket server, or another replica's);
* a :class:`~repro.store.StoreMirror` that materialises/refreshes the
  local store directory from the peer's ``repl_manifest`` /
  ``repl_fetch`` / ``repl_wal`` ops — full fetch once, then delta syncs
  (WAL tails between compactions, changed-shards-only after one).  The
  peer connection must negotiate protocol 2: tails use the byte-offset
  cursor (raw log suffix per poll) and file chunks ride binary frames raw;
* a :class:`~repro.service.ReadReplica` over the mirror directory, whose
  existing change-token polling notices every completed sync and
  hot-swaps engines without dropping in-flight queries.

Staleness is detected by polling the *peer's* ``state_token`` through one
``stats`` round trip (cheap; no checksum work on either side) and only
then pulling a sync.  Transient failures — the peer restarting, a
compaction racing the sync — leave the replica serving its last good
local state, the same degraded-but-available contract ``ReadReplica``
has on a shared filesystem.

The mirror directory is guarded with the store's single-writer
:class:`~repro.service.StoreLock`: the syncing replica is the directory's
writer; any number of *additional* local read-only services may serve
from the same mirror.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import SweepResult
from repro.obs.trace import get_tracer
from repro.parallel.executor import ParallelConfig
from repro.service.lock import StoreLock
from repro.service.replica import ReadReplica
from repro.service.transport.client import ServiceClient
from repro.service.transport.framing import TransportError
from repro.store.format import PathLike, StoreError
from repro.store.replication import ReplicationError, StoreMirror, SyncReport

#: Seconds before the next remote poll after one *failed* (peer down,
#: racing compaction).  Without this, a ``poll_interval=0`` replica would
#: pay the client's full connect-retry budget on every query of an
#: outage instead of serving the local mirror immediately.
_FAILED_POLL_BACKOFF = 1.0


class RemoteReadReplica:
    """A hot-reloading read replica fed purely over the wire.

    Parameters
    ----------
    host / port:
        Address of a serving peer (``serve --listen`` writer or replica).
    store_path:
        Local directory for the mirror (created and locked as its writer).
    poll_interval:
        Minimum seconds between remote staleness checks; ``0`` (default)
        checks before every query.  Between checks, queries are served
        from the local mirror without any network traffic.
    client:
        An already-connected :class:`ServiceClient` to reuse (the replica
        then does not close it); by default one is created and owned.
        ``compression`` only applies to the owned client.
    max_resident_shards / cache_size / config:
        Forwarded to the inner :class:`ReadReplica`.
    compression:
        Handshake pin for the owned client: ``False`` negotiates the
        replication codec off (see ``docs/PROTOCOL.md``).
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        store_path: PathLike = None,
        poll_interval: float = 0.0,
        client: Optional[ServiceClient] = None,
        max_resident_shards: Optional[int] = None,
        cache_size: int = 256,
        config: Optional[ParallelConfig] = None,
        chunk_bytes: Optional[int] = None,
        compression: bool = True,
    ) -> None:
        if store_path is None:
            raise StoreError("RemoteReadReplica needs a local store_path to mirror into")
        if client is None:
            if host is None or port is None:
                raise StoreError("RemoteReadReplica needs host/port or a client")
            client = ServiceClient(str(host), int(port), compression=compression).connect()
            self._owns_client = True
        else:
            self._owns_client = False
        self._client = client
        self._poll_interval = float(poll_interval)
        self._sync_lock = threading.Lock()
        self._closed = False
        self._lock: Optional[StoreLock] = None
        self._tracer = get_tracer()
        #: Why the most recent sync attempt failed (None: it succeeded).
        self._last_sync_error: Optional[str] = None
        try:
            mirror_kwargs = (
                {} if chunk_bytes is None else {"chunk_bytes": int(chunk_bytes)}
            )
            self.mirror = StoreMirror(client, store_path, **mirror_kwargs)
            self._lock = StoreLock(store_path, owner="RemoteReadReplica").acquire(
                blocking=False
            )
            self._remote_token = self._peer_token()
            self.mirror.sync()
            self._replica = ReadReplica(
                store_path,
                poll_interval=0.0,  # the local token is checked after syncs
                max_resident_shards=max_resident_shards,
                cache_size=cache_size,
                config=config,
            )
        except BaseException:
            if self._lock is not None:
                self._lock.release()
            if self._owns_client:
                self._client.close()
            raise
        self._next_check = time.monotonic() + self._poll_interval

    # ------------------------------------------------------------------ #
    # Syncing
    # ------------------------------------------------------------------ #
    def _peer_token(self) -> Optional[Tuple[int, ...]]:
        return self._client.state_token()

    def sync(self, force: bool = False) -> Optional[SyncReport]:
        """Pull the peer's state if it changed; ``None`` when it had not.

        One ``stats`` round trip decides; only a changed token (or
        ``force=True``) pays for a mirror sync.  Concurrent callers
        serialise on one sync at a time.
        """
        if self._closed:
            return None
        # Blocking network/disk I/O under this lock is the design: the
        # lock exists to serialise the one client socket and the one
        # on-disk mirror, and queries never take it (they serve the last
        # swapped-in replica).
        with self._sync_lock:  # repro-lint: allow[blocking-under-lock]
            token = self._peer_token()
            self.mirror.observe_peer_token(token)
            if not force and token is not None and token == self._remote_token:
                self._last_sync_error = None
                return None
            report = self.mirror.sync()
            self._remote_token = token
            self._last_sync_error = None
        # The mirror moved on disk; swap the serving engine now rather
        # than waiting for the next query's poll.
        self._replica.refresh()
        return report

    def _maybe_sync(self) -> None:
        now = time.monotonic()
        if now < self._next_check:
            return
        with self._tracer.start_span("replica.sync_check") as span:
            try:
                report = self.sync()
                span.set_attribute("synced", report is not None)
                self._next_check = time.monotonic() + self._poll_interval
            except (TransportError, ReplicationError, StoreError, OSError) as exc:
                # Keep serving the last good local state through peer
                # restarts and racing compactions; back off so an outage
                # costs one connect budget per backoff window, not per query.
                self._last_sync_error = f"{type(exc).__name__}: {exc}"
                span.set_status("error", self._last_sync_error)
                self._next_check = time.monotonic() + max(
                    self._poll_interval, _FAILED_POLL_BACKOFF
                )

    def lag(self) -> Dict[str, float]:
        """Measure how far behind the peer this replica is, without syncing.

        One ``stats`` round trip; updates the ``repro_replica_*`` lag
        gauges and returns ``generation_lag`` / ``wal_lag_bytes`` /
        ``last_sync_age_seconds`` (empty when the peer reports no token).
        Serialised with syncs: the client socket carries one request at a
        time, and probes may run on a different thread than queries.
        """
        with self._sync_lock:
            return self.mirror.observe_peer_token(self._peer_token())

    def _serve(self, method: str, *args, **kwargs):
        if self._closed:
            raise StoreError(f"remote replica for {self.path} is closed")
        self._maybe_sync()
        return getattr(self._replica, method)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        """The local mirror directory."""
        return self.mirror.path

    @property
    def client(self) -> ServiceClient:
        return self._client

    @property
    def protocol(self) -> int:
        """Protocol version negotiated with the peer (1 = JSON data plane)."""
        return self._client.protocol

    @property
    def replica(self) -> ReadReplica:
        """The inner (local) read replica serving the mirror."""
        return self._replica

    @property
    def generation(self) -> int:
        return self._replica.generation

    @property
    def engine(self):
        """The inner replica's current engine (ReadReplica surface)."""
        return self._replica.engine

    @property
    def reloads(self) -> int:
        """Engine hot-swaps performed by the inner replica."""
        return self._replica.reloads

    def refresh(self, force: bool = False) -> bool:
        """ReadReplica-compatible refresh: remote check, then local swap.

        ``force=True`` pays an unconditional mirror sync (and may raise on
        an unreachable peer); the default path respects the poll interval
        and degrades to serving local state, like queries do.
        """
        if force:
            self.sync(force=True)
            return self._replica.refresh(force=True)
        self._maybe_sync()
        return self._replica.refresh()

    def readiness(
        self, max_generation_lag: Optional[int] = 1
    ) -> Tuple[bool, Dict[str, object]]:
        """Probe-facing readiness: last sync ok and lag within bounds.

        Backs ``GET /readyz`` on a replica: not ready when closed, when
        the most recent sync attempt failed, when the peer is unreachable
        for the lag check, or when the generation lag exceeds
        ``max_generation_lag`` (``None`` disables the lag bound).
        """
        detail: Dict[str, object] = {
            "role": "replica",
            "generation": int(self.generation),
            "protocol": int(self._client.protocol),
        }
        if self._closed:
            detail["reason"] = "closed"
            return False, detail
        if self._last_sync_error is not None:
            detail["reason"] = "last sync failed"
            detail["error"] = self._last_sync_error
            return False, detail
        try:
            lag = self.lag()
        except (TransportError, ReplicationError, StoreError, OSError) as exc:
            detail["reason"] = "peer unreachable"
            detail["error"] = f"{type(exc).__name__}: {exc}"
            return False, detail
        detail.update(lag)
        gen_lag = lag.get("generation_lag", 0.0)
        if max_generation_lag is not None and gen_lag > max_generation_lag:
            detail["reason"] = "generation lag above threshold"
            detail["max_generation_lag"] = int(max_generation_lag)
            return False, detail
        return True, detail

    def fingerprint(self) -> str:
        return self._serve("fingerprint")

    def max_s(self) -> int:
        return self._serve("max_s")

    # ------------------------------------------------------------------ #
    # Queries (the ReadReplica surface)
    # ------------------------------------------------------------------ #
    def line_graph(self, s: int):
        return self._serve("line_graph", s)

    #: ``extract(s)`` is the service-facing name for a threshold view.
    extract = line_graph

    def metric(self, s: int, name: str) -> np.ndarray:
        return self._serve("metric", s, name)

    def metric_by_hyperedge(self, s: int, name: str) -> Dict[int, float]:
        return self._serve("metric_by_hyperedge", s, name)

    def metrics(self, s: int, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return self._serve("metrics", s, names)

    def sweep(self, s_values: Iterable[int], metrics: Sequence[str] = ()) -> SweepResult:
        return self._serve("sweep", list(s_values), metrics=metrics)

    def num_components(self, s: int) -> int:
        return self._serve("num_components", s)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop serving and release the mirror lock (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._replica.close()
        self._lock.release()
        if self._owns_client:
            self._client.close()

    def __enter__(self) -> "RemoteReadReplica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ", closed" if self._closed else ""
        return (
            f"RemoteReadReplica(path={self.path!r}, "
            f"generation={self.generation}{state})"
        )

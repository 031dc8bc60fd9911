"""Remote read replicas: serve a store that lives on another machine.

:class:`RemoteReadReplica` closes the loop the replication ops opened: it
bootstraps a local mirror of a remote store **over the socket protocol
alone** (no shared filesystem) and keeps serving from it exactly like a
local :class:`~repro.service.ReadReplica` — because it *is* one, opened
on the mirror directory.

The moving parts:

* a :class:`~repro.service.transport.client.ServiceClient` connected to
  any serving peer (the writer's socket server, or another replica's);
* a :class:`~repro.store.StoreMirror` that materialises/refreshes the
  local store directory from the peer's ``repl_manifest`` /
  ``repl_fetch`` / ``repl_wal`` ops — full fetch once, then delta syncs
  (WAL tails between compactions, changed-shards-only after one).  The
  peer connection must negotiate protocol 2: tails use the byte-offset
  cursor (raw log suffix per poll) and file chunks ride binary frames raw;
* the inherited :class:`~repro.service.ReadReplica` machinery over the
  mirror directory, whose change-token polling notices every completed
  sync and hot-swaps engines without dropping in-flight queries.  Every
  query method is the base class's; this class only puts a peer check in
  front of the poll.

Staleness is detected by polling the *peer's* ``state_token`` through one
``stats`` round trip (cheap; no checksum work on either side) and only
then pulling a sync.  A poll dials an unreachable peer **once** — the
replica's own poll/backoff schedule is the retry loop, so neither a query
nor a ``/readyz`` probe ever waits out the client's reconnect budget.
Transient failures — the peer restarting, a compaction racing the sync —
leave the replica serving its last good local state, the same
degraded-but-available contract ``ReadReplica`` has on a shared
filesystem.

The mirror directory is guarded with the store's single-writer
:class:`~repro.service.StoreLock`: the syncing replica is the directory's
writer; any number of *additional* local read-only services may serve
from the same mirror.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

from repro.obs.trace import get_tracer
from repro.service.lock import StoreLock
from repro.service.replica import ReadReplica
from repro.service.transport.client import ServiceClient
from repro.service.transport.framing import TransportError
from repro.store.format import PathLike, StoreError
from repro.store.replication import ReplicationError, StoreMirror, SyncReport

#: Seconds before the next remote poll after one *failed* (peer down,
#: racing compaction): an outage costs one dial per window, not one per
#: query, and probes inside the window answer from the recorded failure.
_FAILED_POLL_BACKOFF = 1.0


class RemoteReadReplica(ReadReplica):
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
    max_resident_shards / cache_size:
        As for :class:`ReadReplica`.
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
        compression: bool = True,
    ) -> None:
        if store_path is None:
            raise StoreError("RemoteReadReplica needs a local store_path to mirror into")
        self._owns_client = client is None
        if client is None:
            if host is None or port is None:
                raise StoreError("RemoteReadReplica needs host/port or a client")
            client = ServiceClient(str(host), int(port), compression=compression).connect()
        #: The peer connection (borrowed when passed in, else owned).
        self.client = client
        self._peer_poll_interval = float(poll_interval)
        self._sync_lock = threading.Lock()
        self._lock: Optional[StoreLock] = None
        self._tracer = get_tracer()
        #: Why the most recent sync attempt failed (None: it succeeded).
        self._last_sync_error: Optional[str] = None
        try:
            self.mirror = StoreMirror(client, store_path)
            self._lock = StoreLock(store_path, owner="RemoteReadReplica").acquire(
                blocking=False
            )
            self._remote_token = client.poll_state_token()
            #: What the constructor's bootstrap sync did.
            self.first_sync: SyncReport = self.mirror.sync()
            super().__init__(
                store_path,
                poll_interval=0.0,  # the local token is checked after syncs
                max_resident_shards=max_resident_shards,
                cache_size=cache_size,
            )
        except BaseException:
            if self._lock is not None:
                self._lock.release()
            if self._owns_client:
                self.client.close()
            raise
        self._next_check = time.monotonic() + self._peer_poll_interval

    # ------------------------------------------------------------------ #
    # Syncing
    # ------------------------------------------------------------------ #
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
        # swapped-in engine).
        with self._sync_lock:  # repro-lint: allow[blocking-under-lock]
            # Polls dial a dead peer once: this replica's poll/backoff
            # schedule is the retry loop, and queries and ``/readyz`` probes
            # queue behind this lock.  Requests inside the mirror sync keep
            # the client's reconnect budget.
            token = self.client.poll_state_token()
            self.mirror.observe_peer_token(token)
            if not force and token is not None and token == self._remote_token:
                self._last_sync_error = None
                return None
            report = self.mirror.sync()
            self._remote_token = token
            self._last_sync_error = None
        # The mirror moved on disk; swap the serving engine now rather
        # than waiting for the next query's poll.
        self._reload()
        return report

    def _maybe_sync(self) -> None:
        now = time.monotonic()
        if now < self._next_check:
            return
        with self._tracer.start_span("replica.sync_check") as span:
            try:
                report = self.sync()
                span.set_attribute("synced", report is not None)
                self._next_check = time.monotonic() + self._peer_poll_interval
            except (TransportError, ReplicationError, StoreError, OSError) as exc:
                # Keep serving the last good local state through peer
                # restarts and racing compactions, and back off.
                self._last_sync_error = f"{type(exc).__name__}: {exc}"
                span.set_status("error", self._last_sync_error)
                self._next_check = time.monotonic() + max(
                    self._peer_poll_interval, _FAILED_POLL_BACKOFF
                )

    def _current_engine(self):
        """Peer check (per ``poll_interval``), then the inherited local poll."""
        self._maybe_sync()
        return super()._current_engine()

    def refresh(self, force: bool = False) -> bool:
        """Remote check, then the local swap.

        ``force=True`` pays an unconditional mirror sync (and may raise on
        an unreachable peer); the default path respects the poll interval
        and degrades to serving local state, like queries do.
        """
        if force:
            self.sync(force=True)
        else:
            self._maybe_sync()
        return self._reload(force)

    def lag(self) -> Dict[str, float]:
        """Measure how far behind the peer this replica is, without syncing.

        One ``stats`` round trip; updates the ``repro_replica_*`` lag
        gauges and returns ``generation_lag`` / ``wal_lag_bytes`` /
        ``last_sync_age_seconds`` (empty when the peer reports no token).
        Serialised with syncs: the client socket carries one request at a
        time, and probes may run on a different thread than queries.
        """
        with self._sync_lock:
            return self.mirror.observe_peer_token(self.client.poll_state_token())

    def readiness(
        self, max_generation_lag: Optional[int] = 1
    ) -> Tuple[bool, Dict[str, object]]:
        """Probe-facing readiness: last sync ok and lag within bounds.

        Backs ``GET /readyz`` on a replica: not ready when closed, when
        the most recent sync attempt failed, when the peer is unreachable
        for the lag check, or when the generation lag exceeds
        ``max_generation_lag`` (``None`` disables the lag bound).  A
        recorded failed poll is reported without dialling.
        """
        ready, detail = super().readiness()
        detail["protocol"] = int(self.client.protocol)
        if not ready:
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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop serving and release the mirror lock (idempotent)."""
        if self._closed:
            return
        super().close()
        self._lock.release()
        if self._owns_client:
            self.client.close()

"""Concurrent serving layer: one writer, many readers, one shared store.

PR 2's store made the overlap index a durable artefact; this package makes
it a *served* one.  The pieces, bottom-up:

* :class:`StoreLock` (:mod:`repro.service.lock`) — cross-process
  single-writer protocol: an advisory ``flock`` plus lease metadata in the
  store directory, auto-released by the kernel if the writer dies;
* :class:`ReadReplica` (:mod:`repro.service.replica`) — read-only engine
  that polls the store's change token and hot-reloads after WAL appends
  and compactions without dropping in-flight queries;
* :class:`AdmissionQueue` (:mod:`repro.service.admission`) — async batched
  update admission: bounded queue with backpressure, one writer thread
  coalescing mutations into single-fsync WAL group commits, futures as
  durability acknowledgements;
* :class:`CompactionPolicy` / :class:`BackgroundCompactor`
  (:mod:`repro.service.compaction`) — fold the WAL into a new snapshot
  generation off the query path when it grows past thresholds;
* :mod:`repro.service.contract` — the wire contract declared once: the
  service op rows and the exception-class → error-code rows that dispatch,
  client retry, metric labels and ``docs/PROTOCOL.md`` derive from;
* :class:`QueryService` (:mod:`repro.service.service`) — the façade: a
  writer (or read-only replica) serving batched s-metric requests across
  worker threads under a readers-writer lock;
* :class:`SocketServer` / :class:`ServiceClient`
  (:mod:`repro.service.transport`) — the TCP wire protocol of
  ``docs/PROTOCOL.md`` in front of :class:`QueryService`: a JSON control
  plane plus a version-negotiated binary data plane (protocol v2) for
  bulk responses, so writers and replicas serve clients on other
  machines;
* :class:`RemoteReadReplica` (:mod:`repro.service.remote`) — a
  :class:`ReadReplica` fed purely over the wire: its own
  :class:`~repro.store.StoreMirror` pulls snapshot/WAL deltas through the
  socket protocol into the local directory it serves — read fleets
  without a shared filesystem.
"""

from repro.service.admission import AdmissionQueue, AdmissionStats
from repro.service.compaction import BackgroundCompactor, CompactionPolicy
from repro.service.lock import StoreLock, StoreLockHeldError
from repro.service.remote import RemoteReadReplica
from repro.service.replica import ReadReplica
from repro.service.service import QueryService
from repro.service.sync import RWLock
from repro.service.transport import (
    ServiceClient,
    SocketServer,
    TransportError,
)

__all__ = [
    "AdmissionQueue",
    "AdmissionStats",
    "BackgroundCompactor",
    "CompactionPolicy",
    "QueryService",
    "RWLock",
    "ReadReplica",
    "RemoteReadReplica",
    "ServiceClient",
    "SocketServer",
    "StoreLock",
    "StoreLockHeldError",
    "TransportError",
]

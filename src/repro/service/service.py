"""The query service: one store, one writer, many threads, many readers.

:class:`QueryService` ties the serving subsystem together.  In **writer**
mode it takes the cross-process :class:`~repro.service.StoreLock`, opens
a :class:`~repro.store.PersistentQueryEngine` over an existing store (build
one first with :meth:`~repro.store.IndexStore.build`), and starts the
:class:`~repro.service.AdmissionQueue` writer thread plus — when a
:class:`~repro.service.CompactionPolicy` is given — the background
compactor.  In **read-only** mode it serves from a hot-reloading
:class:`~repro.service.ReadReplica` and takes no lock, so any number of
reader processes can share the store with the writer.

Queries run concurrently under the shared side of one
:class:`~repro.service.sync.RWLock`; updates and compactions take the
exclusive side, so a query never observes a half-applied batch.  Batched
request lists fan out over worker threads via
:func:`repro.parallel.executor.run_partitioned` — the same executor layer
the Stage-3 algorithms use.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.chaos import failpoints as _failpoints
from repro.chaos.failpoints import SERVICE_EXECUTE
from repro.engine.engine import QueryEngine, SweepResult
from repro.graph.connected_components import num_components
from repro.obs import get_registry, get_tracer, render_prometheus
from repro.parallel.executor import ParallelConfig, run_partitioned
from repro.service import contract
from repro.service.admission import AdmissionQueue, AdmissionStats
from repro.service.compaction import BackgroundCompactor, CompactionPolicy
from repro.service.lock import StoreLock
from repro.service.replica import ReadReplica
from repro.service.sync import RWLock
from repro.store.format import PathLike, ReadOnlyStoreError, StoreError
from repro.store.persistent import PersistentQueryEngine
from repro.store.replication import LocalReplicationSource
from repro.store.store import IndexStore
from repro.utils.validation import ValidationError, check_positive_int, check_s_value

#: A serving request: ``{"op": ..., ...}`` (see :meth:`QueryService.serve`).
Request = Mapping[str, object]


def _list_field(request: Request, name: str) -> list:
    """A request field that must be a JSON array (a string is iterable too)."""
    value = request[name]
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _raw_field(request: Request) -> bool:
    """The optional ``raw`` flag, which must be a JSON boolean."""
    raw = request.get("raw", False)
    if not isinstance(raw, bool):
        raise ValidationError(f"raw must be a boolean, got {raw!r}")
    return raw


@contract.bind_handlers
class QueryService:
    """Concurrent serving façade over one shared store (module docstring).

    Parameters
    ----------
    path:
        Store directory.
    read_only:
        Serve as a read replica: no writer lock, no admission queue;
        ``submit_add`` / ``submit_remove`` / ``compact`` raise
        :class:`~repro.store.ReadOnlyStoreError`.
    num_workers:
        Default thread fan-out for :meth:`serve` request batches.
    max_batch:
        Admission-queue coalescing limit (writer mode).
    compaction:
        A :class:`CompactionPolicy` to enable background compaction
        (``None`` — the default — leaves compaction manual).
    remote_source:
        ``(host, port)`` of a serving peer.  With ``read_only=True`` the
        service serves from a :class:`~repro.service.RemoteReadReplica`
        mirroring that peer into ``path`` — each query (re-)checks peer
        staleness within ``replica_poll_interval`` — instead of assuming
        the writer shares the filesystem.  This is how a chained replica
        process serves: its socket server front, this service, and the
        wire-fed mirror underneath.
    """

    def __init__(
        self,
        path: PathLike,
        read_only: bool = False,
        num_workers: int = 4,
        max_batch: int = 64,
        compaction: Optional[CompactionPolicy] = None,
        compaction_poll_interval: float = 0.1,
        replica_poll_interval: float = 0.0,
        remote_source: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.path = str(path)
        self.read_only = bool(read_only)
        self._num_workers = int(num_workers)
        if remote_source is not None and not self.read_only:
            raise ValidationError(
                "remote_source requires read_only=True: a remote-fed mirror "
                "cannot also be the store's writer"
            )
        # The registry (and tracer) are captured once so the metrics/trace
        # ops and stats snapshot report against the same instances the
        # layers below bound at construction time.
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._rw = RWLock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._lock: Optional[StoreLock] = None
        self._admission: Optional[AdmissionQueue] = None
        self._compactor: Optional[BackgroundCompactor] = None
        self._replica: Optional[ReadReplica] = None
        # Serves the repl_* ops (writer and replica mode alike): any peer
        # that can reach this service can bootstrap a remote mirror of the
        # store (see repro.store.replication).
        self._replication = LocalReplicationSource(self.path)

        if self.read_only:
            self._engine = None
            if remote_source is not None:
                # Imported lazily: remote.py pulls in the transport client,
                # which shared-filesystem replicas never need.
                from repro.service.remote import RemoteReadReplica

                host, port = remote_source
                self._replica = RemoteReadReplica(
                    str(host),
                    int(port),
                    store_path=path,
                    poll_interval=replica_poll_interval,
                )
            else:
                self._replica = ReadReplica(path, poll_interval=replica_poll_interval)
            return

        self._lock = StoreLock(path, owner="QueryService").acquire(blocking=False)
        try:
            self._engine = PersistentQueryEngine.open(path)
            self._admission = AdmissionQueue(
                self._engine, write_lock=self._rw, max_batch=max_batch
            )
            self._compactor = BackgroundCompactor(
                self._engine,
                self._rw,
                policy=compaction,
                poll_interval=compaction_poll_interval,
            )
        except BaseException:
            self._lock.release()
            raise

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> QueryEngine:
        """The underlying engine (the replica's current one in reader mode)."""
        if self._replica is not None:
            return self._replica.engine
        return self._engine

    @property
    def replica(self):
        """The backing replica in reader mode (``None`` for the writer).

        A :class:`~repro.service.ReadReplica` — the
        :class:`~repro.service.remote.RemoteReadReplica` subclass when the
        service was built with ``remote_source``; callers keeping a
        remote-fed replica fresh while idle call its ``refresh()``
        through this.
        """
        return self._replica

    @property
    def generation(self) -> int:
        """Snapshot generation of the served view."""
        return self.engine.store.manifest.generation

    def stats(self) -> Dict[str, object]:
        """Engine + admission counters (the ``stats`` request payload).

        In replica mode this first polls the store's change token, so the
        reported generation/fingerprint describe the state a query issued
        *now* would be served from — remote clients use it to detect
        convergence with the writer.
        """
        if self._replica is not None:
            try:
                self._replica.refresh()
            except (StoreError, OSError):
                pass  # transient writer race; serve the last good view
        out: Dict[str, object] = {
            "read_only": self.read_only,
            "generation": self.generation,
            "fingerprint": self.engine.fingerprint(),
        }
        try:
            # Remote mirrors poll this to decide when to pull a sync (see
            # repro.store.replication); it changes on every append,
            # truncate and compaction.
            out["state_token"] = list(IndexStore.state_token(self.path))
        except (StoreError, OSError):  # pragma: no cover - racing compaction
            pass
        out["engine"] = vars(self.engine.stats())
        if self._admission is not None:
            # snapshot() copies every counter under one lock hold, so the
            # reported values are mutually consistent (the old
            # vars(dataclass) path could interleave with a commit).
            out["admission"] = self._admission.snapshot()
        if self._replica is not None:
            out["replica_reloads"] = self._replica.reloads
        if self._compactor is not None:
            out["compactions"] = self._compactor.compactions
        out["metrics"] = self._registry.snapshot()
        out["tracing"] = self._tracer.stats()
        return out

    def admission_stats(self) -> Optional[AdmissionStats]:
        return self._admission.stats() if self._admission is not None else None

    # ------------------------------------------------------------------ #
    # Queries (shared lock: any number run concurrently)
    # ------------------------------------------------------------------ #
    def _query(self, method: str, *args, **kwargs):
        """One dispatch rule for every read: the replica serves directly
        (its engine swap is atomic), the writer's engine is read-locked
        so no query overlaps an update batch or compaction."""
        if self._replica is not None:
            return getattr(self._replica, method)(*args, **kwargs)
        with self._rw.read():
            return getattr(self._engine, method)(*args, **kwargs)

    def metric(self, s: int, name: str) -> np.ndarray:
        return self._query("metric", s, name)

    def metric_columns(self, s: int, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self._query("metric_columns", s, name)

    def metric_by_hyperedge(self, s: int, name: str) -> Dict[int, float]:
        return self._query("metric_by_hyperedge", s, name)

    def line_graph(self, s: int):
        return self._query("line_graph", s)

    def sweep(self, s_values: Iterable[int], metrics: Sequence[str] = ()) -> SweepResult:
        return self._query("sweep", s_values, metrics=metrics)

    def num_components(self, s: int) -> int:
        """Number of s-connected components among non-isolated hyperedges."""
        return num_components(self.metric(s, "connected_components"))

    # ------------------------------------------------------------------ #
    # Updates (async admission; writer mode only)
    # ------------------------------------------------------------------ #
    def _admission_or_raise(self) -> AdmissionQueue:
        if self._admission is None:
            raise ReadOnlyStoreError(
                f"service for {self.path} is read-only; updates go through "
                "the single writer process"
            )
        return self._admission

    def submit_add(self, members: Iterable[int], name: Optional[object] = None) -> Future:
        """Enqueue an add; the future resolves to the new hyperedge ID once
        the update is applied and durable (see :class:`AdmissionQueue`)."""
        return self._admission_or_raise().submit_add(members, name=name)

    def submit_remove(self, edge_id: int) -> Future:
        """Enqueue a remove; the future resolves once applied and durable."""
        return self._admission_or_raise().submit_remove(edge_id)

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every previously submitted update is durable."""
        self._admission_or_raise().flush(timeout=timeout)

    def compact(self) -> bool:
        """Flush pending updates, then fold the WAL into a new generation."""
        self._admission_or_raise().flush()
        return self._compactor.maybe_compact(force=True)

    # ------------------------------------------------------------------ #
    # Batched request serving
    # ------------------------------------------------------------------ #
    def serve(
        self, requests: Sequence[Request], num_workers: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Serve a batch of requests across worker threads, in order.

        Each request is a mapping whose ``op`` key names a row of
        :data:`repro.service.contract.OPS`; the ``_op_<name>`` handler
        below documents that op's arguments and result fields.

        Responses carry ``ok`` (bool), ``op`` and, on failure, ``error``
        plus the machine-readable ``code``; request order is preserved.
        Worker threads share the engine through the read lock, so queries
        parallelise while updates stay serialised.
        """
        if num_workers is None:
            num_workers = self._num_workers
        requests = list(requests)
        if not requests:
            return []
        config = ParallelConfig(
            num_workers=max(1, min(int(num_workers), len(requests))),
            backend="thread",
        )

        # Worker threads do not inherit this thread's span context; carry
        # the caller's span across so batched queries stay in its trace.
        caller_span = self._tracer.current_span()

        def kernel(part: np.ndarray, worker_id: int):
            with self._tracer.use_span(caller_span):
                return [(int(i), self.execute(requests[int(i)])) for i in part]

        merged: List[Optional[Dict[str, object]]] = [None] * len(requests)
        for partial in run_partitioned(kernel, np.arange(len(requests)), config):
            for i, response in partial:
                merged[i] = response
        return merged  # type: ignore[return-value]

    def execute(self, request: Request) -> Dict[str, object]:
        """Serve one request mapping, never raising: errors become payloads
        carrying the contract's ``code`` for the exception's class."""
        op = contract.op_name(request)
        try:
            # Disabled-failpoint cost on every request rides inside the
            # `obs_overhead` benchmark floor (one module-global bool read).
            SERVICE_EXECUTE.fire()
            handler = self._handlers.get(op)
            if handler is None:
                raise ValidationError(
                    f"unknown op {op!r}; expected one of "
                    + "/".join(contract.OP_NAMES)
                )
            return {"ok": True, "op": op, **handler(self, request)}
        except Exception as exc:
            return {
                "ok": False,
                "op": op,
                "error": f"{type(exc).__name__}: {exc}",
                "code": contract.error_code(exc),
            }

    # One handler per contract row, returning the fields that follow
    # ``ok``/``op`` in the response (see contract.bind_handlers).
    def _op_metric(self, request: Request) -> Dict[str, object]:
        """``s``, ``metric``, ``columns?`` -> ``values`` by hyperedge ID."""
        s = check_s_value(request["s"])
        name = str(request.get("metric", "connected_components"))
        edge_ids, values = self.metric_columns(s, name)
        base: Dict[str, object] = {
            "s": s,
            "metric": name,
            "generation": self.generation,
        }
        if request.get("columns"):
            # Columnar fast path (binary data plane): the engine's cached
            # int64/float64 columns as they are, instead of a str-keyed
            # JSON object.  Sections like these only survive a protocol
            # >= 2 connection; the transport enforces that.
            base["columns"] = True
            base["edge_ids"] = edge_ids
            base["values"] = values
            return base
        base["values"] = dict(zip(map(str, edge_ids.tolist()), values.tolist()))
        return base

    def _op_components(self, request: Request) -> Dict[str, object]:
        """``s`` -> ``count`` of s-connected components."""
        s = check_s_value(request["s"])
        return {"s": s, "count": self.num_components(s)}

    def _op_sweep(self, request: Request) -> Dict[str, object]:
        """``s_values`` or ``s_min``/``s_max``, ``metrics?``, ``columns?``
        -> ``edge_counts`` and ``active_counts`` per s."""
        # Both spellings stay lazy: the engine checks each value and refuses
        # more than ``MAX_SWEEP_THRESHOLDS`` before materialising any of them.
        s_values: Iterable[int]
        if "s_values" in request:
            s_values = _list_field(request, "s_values")
        else:
            s_min = check_s_value(request.get("s_min", 1))
            s_values = range(s_min, check_s_value(request["s_max"]) + 1)
        metrics = [str(m) for m in request.get("metrics", ())]  # type: ignore[union-attr]
        result = self.sweep(s_values, metrics=metrics)
        if request.get("columns"):
            ordered = sorted(result.edge_counts)
            return {
                "columns": True,
                "s_values": np.asarray(ordered, dtype=np.int64),
                "edge_counts": np.asarray(
                    [result.edge_counts[s] for s in ordered], dtype=np.int64
                ),
                "active_counts": np.asarray(
                    [result.active_counts[s] for s in ordered], dtype=np.int64
                ),
            }
        return {
            "edge_counts": {str(s): int(n) for s, n in result.edge_counts.items()},
            "active_counts": {
                str(s): int(n) for s, n in result.active_counts.items()
            },
        }

    def _op_add(self, request: Request) -> Dict[str, object]:
        """``members``, ``name?``, ``wait?`` -> ``queued``, or the durable
        ``edge_id`` with ``wait``."""
        future = self.submit_add(
            [
                check_positive_int(v, "member", minimum=0)
                for v in _list_field(request, "members")
            ],
            name=request.get("name"),
        )
        if request.get("wait"):
            return {"edge_id": int(future.result())}
        return {"queued": True}

    def _op_remove(self, request: Request) -> Dict[str, object]:
        """``edge_id``, ``wait?`` -> ``queued``, or ``removed`` once durable."""
        future = self.submit_remove(
            check_positive_int(request["edge_id"], "edge_id", minimum=0)
        )
        if request.get("wait"):
            future.result()
            return {"removed": True}
        return {"queued": True}

    def _op_flush(self, request: Request) -> Dict[str, object]:
        """-> ``flushed`` once every earlier update is durable."""
        self.flush()
        return {"flushed": True}

    def _op_compact(self, request: Request) -> Dict[str, object]:
        """-> ``compacted`` and the new ``generation``."""
        compacted = self.compact()
        return {"compacted": bool(compacted), "generation": self.generation}

    def _op_stats(self, request: Request) -> Dict[str, object]:
        """-> the :meth:`stats` snapshot."""
        return {"stats": self.stats()}

    def _op_metrics(self, request: Request) -> Dict[str, object]:
        """-> the registry as Prometheus exposition ``text``."""
        return {
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
            "text": render_prometheus(self._registry),
        }

    def _op_trace(self, request: Request) -> Dict[str, object]:
        """``trace_id?``, ``limit?`` -> finished ``traces``, oldest first."""
        trace_id = request.get("trace_id")
        return {
            "traces": self._tracer.finished_traces(
                trace_id=None if trace_id is None else str(trace_id),
                limit=check_positive_int(request.get("limit", 20), "limit", minimum=0),
            ),
            "tracing": self._tracer.stats(),
        }

    def _op_repl_manifest(self, request: Request) -> Dict[str, object]:
        """-> live manifest plus per-file checksums (docs/PROTOCOL.md §4.1)."""
        return self._replication.repl_manifest()

    def _op_repl_wal(self, request: Request) -> Dict[str, object]:
        """``generation`` plus a cursor -> WAL suffix or records (§4.3-4.4)."""
        generation = check_positive_int(request["generation"], "generation", minimum=0)
        if "after_bytes" in request or "next_seq" in request:
            # Byte-offset cursor mode: ship the raw validated log
            # suffix after (generation, byte_offset) — O(suffix), not
            # O(WAL) — see docs/PROTOCOL.md.
            return self._replication.repl_wal_suffix(
                generation,
                check_positive_int(request.get("after_bytes", 0), "after_bytes", minimum=0),
                check_positive_int(request.get("next_seq", 1), "next_seq", minimum=1),
                raw=_raw_field(request),
            )
        return self._replication.repl_wal(
            generation,
            check_positive_int(request.get("after_seq", 0), "after_seq", minimum=0),
        )

    def _op_repl_fetch(self, request: Request) -> Dict[str, object]:
        """``file``, ``generation``, ``offset?``, ``length``, ``raw?`` -> one
        snapshot-file chunk (§4.2)."""
        return self._replication.repl_fetch(
            str(request["file"]),
            check_positive_int(request["generation"], "generation", minimum=0),
            check_positive_int(request.get("offset", 0), "offset", minimum=0),
            check_positive_int(request["length"], "length", minimum=0),
            # Raw bytes ride a binary frame; base64 is the v1 fallback.
            raw=_raw_field(request),
        )

    def _op_chaos(self, request: Request) -> Dict[str, object]:
        """Failpoint control for a live process (the chaos harness's lever):
        ``cmd`` = activate/deactivate/reset/list -> ``active``, ``hits``.

        Gated: unless the process was launched with ``REPRO_CHAOS`` set
        (``repro serve --chaos`` does this), the op is refused — fault
        injection must be opted into at process start, never reachable on
        a production server by default.
        """
        if not _failpoints.remote_control_enabled():
            raise ValidationError(
                "chaos control is disabled; start the server with --chaos "
                "(or REPRO_CHAOS=1) to allow remote failpoint control"
            )
        cmd = str(request.get("cmd", "list"))
        if cmd == "activate":
            value = request.get("value")
            count = request.get("count")
            _failpoints.activate(
                str(request["point"]),
                str(request.get("action", "error")),
                None if value is None else float(value),  # type: ignore[arg-type]
                None if count is None else int(count),  # type: ignore[arg-type]
            )
        elif cmd == "deactivate":
            _failpoints.deactivate(str(request["point"]))
        elif cmd == "reset":
            _failpoints.reset()
        elif cmd != "list":
            raise ValidationError(
                f"unknown chaos cmd {cmd!r}; expected "
                "activate/deactivate/reset/list"
            )
        return {
            "cmd": cmd,
            "active": _failpoints.active(),
            "hits": _failpoints.hits(),
        }

    # ------------------------------------------------------------------ #
    # Readiness (the /readyz probe)
    # ------------------------------------------------------------------ #
    def readiness(
        self, max_generation_lag: Optional[int] = 1
    ) -> Tuple[bool, Dict[str, object]]:
        """``(ready, detail)`` for traffic-readiness probes.

        Writer: ready while the store lock is held and the admission
        queue has not been poisoned by a failed group commit.  Replica:
        what its :meth:`ReadReplica.readiness` says — open, and for a
        remote-fed mirror also last sync ok and generation lag within
        ``max_generation_lag``.
        """
        if self._closed:
            return False, {"reason": "service closed"}
        if self._replica is not None:
            return self._replica.readiness(max_generation_lag)
        detail: Dict[str, object] = {"role": "writer"}
        if self._lock is None or not self._lock.held:
            detail["reason"] = "store writer lock not held"
            return False, detail
        if self._admission is not None and self._admission.poisoned:
            detail["reason"] = "admission queue poisoned (a group commit failed)"
            return False, detail
        detail["generation"] = int(self.generation)
        return True, detail

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop background threads, flush pending updates, release the
        engine's shard mmaps, drop the lock."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._compactor is not None:
            self._compactor.stop()
        if self._admission is not None:
            self._admission.close()
        if self._engine is not None:
            self._engine.close()
        if self._replica is not None:
            self._replica.close()
        if self._lock is not None:
            self._lock.release()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "read-only" if self.read_only else "writer"
        return f"QueryService(path={self.path!r}, {mode})"

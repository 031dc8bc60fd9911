"""Async batched admission of hypergraph updates.

Durable updates through :class:`~repro.store.PersistentQueryEngine` pay one
fsync *per update* — correct, but the fsync dominates at high update rates.
:class:`AdmissionQueue` decouples submission from application: callers
enqueue mutations (``submit_add`` / ``submit_remove``) and get a
:class:`~concurrent.futures.Future` back; a single writer thread drains the
queue, coalesces up to ``max_batch`` mutations, applies them to the engine
under the service's exclusive lock, and commits them to the write-ahead log
with *one* fsync (group commit, :meth:`repro.store.IndexStore.batch`).

Durability contract
-------------------
A future resolves only after the batch's fsync returns — an acknowledged
update survives a crash, exactly as with per-update appends; only the
acknowledgement latency is batched, never the safety.  A rejected update
(e.g. removing an out-of-range hyperedge) fails *before* its WAL append:
its future carries the exception, and the rest of the batch is unaffected.
The queue is bounded (``max_pending``); when full, ``submit_*`` blocks —
backpressure, so a runaway producer cannot grow memory without bound.

If the group commit *itself* fails (an fsync error), every future of the
batch carries the failure and the queue is **poisoned**: the mutations were
already applied to the in-memory engine, so the served state may be ahead
of the log, and further submissions are refused with instructions to
restart the writer — a fresh open recovers exactly the acknowledged prefix
from the WAL.  Cancelling a future before the writer claims it drops the
mutation entirely; once claimed, it can no longer be cancelled.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.chaos.failpoints import ADMISSION_COMMIT
from repro.engine.engine import QueryEngine
from repro.obs import get_registry, get_tracer
from repro.service.sync import RWLock
from repro.store.format import StoreError
from repro.utils.validation import ValidationError

_OP_ADD = "add"
_OP_REMOVE = "remove"
_OP_BARRIER = "barrier"


def _fail_future(future: Future, exc: BaseException) -> None:
    """Best-effort rejection: a future another path already resolved
    (or the caller cancelled) is left alone."""
    if future.done():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:  # resolved/cancelled in the race window
        pass


@dataclass
class _Op:
    kind: str
    members: Optional[list] = None
    name: Optional[object] = None
    edge_id: Optional[int] = None
    future: Future = field(default_factory=Future)
    #: perf_counter() stamp taken at submission (queue-wait histogram).
    submitted_at: float = 0.0
    #: The submitting request's active span, if it is being traced —
    #: carried across the thread hop so the writer thread can attribute
    #: queue wait and the group-commit fsync to the originating request.
    trace_span: Optional[object] = None


@dataclass
class AdmissionStats:
    """Counters describing the queue's work since construction."""

    submitted: int = 0
    applied: int = 0
    failed: int = 0
    batches: int = 0
    largest_batch: int = 0

    def mean_batch_size(self) -> float:
        done = self.applied + self.failed
        return done / self.batches if self.batches else 0.0


class AdmissionQueue:
    """Single-writer-thread batched update admission (see module docstring).

    Parameters
    ----------
    engine:
        The engine updates are applied to.  A
        :class:`~repro.store.PersistentQueryEngine` gets group-committed
        WAL durability; a plain :class:`QueryEngine` gets in-memory batch
        application with the same future-based acknowledgement.
    write_lock:
        The service's :class:`~repro.service.sync.RWLock`; the writer
        thread takes its exclusive side per batch so queries never observe
        a half-applied update.  A private lock is created when omitted.
    max_pending:
        Queue bound; ``submit_*`` blocks when this many mutations are
        waiting (backpressure).
    max_batch:
        Most mutations coalesced into one exclusive-lock/fsync cycle.
    """

    def __init__(
        self,
        engine: QueryEngine,
        write_lock: Optional[RWLock] = None,
        max_pending: int = 1024,
        max_batch: int = 64,
    ) -> None:
        if max_pending < 1:
            raise ValidationError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        self._engine = engine
        self._write_lock = write_lock if write_lock is not None else RWLock()
        self._queue: "queue.Queue[Optional[_Op]]" = queue.Queue(maxsize=max_pending)
        self._max_batch = int(max_batch)
        self._closed = False
        self._drained = False
        #: The exception that broke a group commit, if any (poisons submits).
        self._commit_failure: Optional[BaseException] = None
        self._stats = AdmissionStats()
        self._stats_lock = threading.Lock()
        self._tracer = get_tracer()
        registry = get_registry()
        self._m_depth = registry.gauge(
            "repro_admission_queue_depth", "Mutations waiting for the writer thread."
        )
        self._m_wait = registry.histogram(
            "repro_admission_wait_seconds",
            "Time a mutation spends queued before the writer claims it.",
        )
        self._m_batch_size = registry.histogram(
            "repro_admission_batch_size",
            "Mutations coalesced into one group commit.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        self._m_submitted = registry.counter(
            "repro_admission_submitted_total", "Mutations accepted for admission."
        )
        self._m_applied = registry.counter(
            "repro_admission_applied_total", "Mutations applied and made durable."
        )
        self._m_failed = registry.counter(
            "repro_admission_failed_total", "Mutations rejected by validation."
        )
        self._thread = threading.Thread(
            target=self._run, name="admission-writer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    @property
    def poisoned(self) -> bool:
        """Whether a failed group commit has poisoned further submissions."""
        return self._commit_failure is not None

    def _poison_error(self) -> ValidationError:
        return ValidationError(
            "admission queue is poisoned: a group commit failed "
            f"({self._commit_failure!r}); the engine's in-memory state "
            "may be ahead of the log — restart the writer (the store "
            "recovers every acknowledged update from the WAL)"
        )

    def _submit(self, op: _Op) -> Future:
        if self._closed:
            raise ValidationError("admission queue is closed")
        if self._commit_failure is not None:
            raise self._poison_error()
        with self._stats_lock:
            self._stats.submitted += 1
        self._m_submitted.inc()
        op.submitted_at = time.perf_counter()
        op.trace_span = self._tracer.current_span()
        self._queue.put(op)  # blocks when full: backpressure
        self._m_depth.set(self._queue.qsize())
        if self._drained:
            # We raced close(): its final drain may have missed this op.
            _fail_future(
                op.future,
                ValidationError(
                    "admission queue closed before this update was applied"
                ),
            )
        return op.future

    def submit_add(self, members: Iterable[int], name: Optional[object] = None) -> Future:
        """Enqueue an ``add_hyperedge``; the future resolves to the new ID
        once the update is applied *and durable*."""
        return self._submit(_Op(kind=_OP_ADD, members=list(members), name=name))

    def submit_remove(self, edge_id: int) -> Future:
        """Enqueue a ``remove_hyperedge``; the future resolves to ``None``
        once the update is applied and durable."""
        return self._submit(_Op(kind=_OP_REMOVE, edge_id=int(edge_id)))

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything submitted before this call is durable."""
        barrier = self._submit(_Op(kind=_OP_BARRIER))
        barrier.result(timeout=timeout)

    def pending(self) -> int:
        """Approximate number of not-yet-applied mutations."""
        return self._queue.qsize()

    def stats(self) -> AdmissionStats:
        with self._stats_lock:
            return AdmissionStats(**vars(self._stats))

    def snapshot(self) -> dict:
        """Atomic plain-dict view of the queue's counters.

        All counter fields are copied under one lock hold, so the returned
        values are mutually consistent (``applied + failed`` never exceeds
        a concurrently-advancing ``submitted``).  Stable keys:
        ``submitted``, ``applied``, ``failed``, ``batches``,
        ``largest_batch``, ``mean_batch_size``, ``pending``.
        """
        with self._stats_lock:
            snap = AdmissionStats(**vars(self._stats))
        return {
            "submitted": snap.submitted,
            "applied": snap.applied,
            "failed": snap.failed,
            "batches": snap.batches,
            "largest_batch": snap.largest_batch,
            "mean_batch_size": snap.mean_batch_size(),
            "pending": self._queue.qsize(),
        }

    # ------------------------------------------------------------------ #
    # Writer thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            op = self._queue.get()
            if op is None:
                return
            if self._commit(op):
                return

    def _durability_scope(self):
        store = getattr(self._engine, "store", None)
        return store.batch() if store is not None else nullcontext()

    def _commit(self, first: _Op) -> bool:
        """Apply one coalesced batch: exclusive lock, group commit, ack.

        Coalescing happens *inside* the exclusive lock: every mutation that
        queued while this batch waited for queries (or a compaction) to
        drain joins it, up to ``max_batch`` — contention is what creates
        batches.  Returns True when the shutdown sentinel was drained.
        """
        if self._commit_failure is not None:
            # Poisoned: the engine is already ahead of the log, so applying
            # (let alone acknowledging) anything more would widen the gap.
            _fail_future(first.future, self._poison_error())
            return False
        candidates = [first]
        saw_sentinel = False
        outcomes: List[tuple] = []  # (op, value, error)
        batch: List[_Op] = []
        try:
            with self._write_lock.write():
                while len(candidates) < self._max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        saw_sentinel = True
                        break
                    candidates.append(nxt)
                # Claim each future (Future protocol): a caller that already
                # cancelled is dropped *before* its mutation is applied, and
                # a claimed future can no longer be cancelled under us.
                batch = [
                    op
                    for op in candidates
                    if op.future.set_running_or_notify_cancel()
                ]
                claimed_at = time.perf_counter()
                traced = None
                for op in batch:
                    self._m_wait.observe(claimed_at - op.submitted_at)
                    if op.trace_span is not None:
                        # Queue wait is only known now that the batch is
                        # claimed — backfill it from the two stamps.
                        self._tracer.record_span(
                            "admission.queue_wait",
                            op.trace_span,
                            op.submitted_at,
                            claimed_at,
                        )
                        if traced is None:
                            traced = op.trace_span
                # The group commit serves the whole batch; its WAL fsync is
                # attributed to the first traced request that joined it.
                with self._tracer.use_span(traced):
                    with self._durability_scope():
                        # Chaos: a fault here fails the whole group commit
                        # (batch futures error, queue poisons) — the acked
                        # prefix on disk must still survive a restart.
                        ADMISSION_COMMIT.fire()
                        for op in batch:
                            try:
                                outcomes.append((op, self._apply(op), None))
                            except ValidationError as exc:
                                if isinstance(exc, StoreError):
                                    # The store refused *after* the in-memory
                                    # apply (WAL append path): state is ahead
                                    # of the log — escalate to the poison
                                    # path.
                                    raise
                                # Engine validation rejects before mutating
                                # anything: safe to isolate to this op.
                                outcomes.append((op, None, exc))
        except Exception as exc:
            # The group commit itself failed (e.g. fsync error): nothing in
            # this batch may be acknowledged as durable — but the mutations
            # were already applied to the in-memory engine, so this writer
            # can no longer vouch that served state matches the log.  Poison
            # further submissions; a restarted writer recovers exactly the
            # acknowledged prefix from the WAL.
            self._commit_failure = exc
            for op in batch:
                _fail_future(op.future, exc)
            return saw_sentinel
        # Acknowledge only now — after the WAL fsync — per the contract.
        applied = failed = 0
        for op, value, error in outcomes:
            if error is None:
                op.future.set_result(value)
                if op.kind != _OP_BARRIER:
                    applied += 1
            else:
                op.future.set_exception(error)
                failed += 1
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.applied += applied
            self._stats.failed += failed
            self._stats.largest_batch = max(self._stats.largest_batch, len(batch))
        if batch:
            self._m_batch_size.observe(len(batch))
        self._m_applied.inc(applied)
        self._m_failed.inc(failed)
        self._m_depth.set(self._queue.qsize())
        return saw_sentinel

    def _apply(self, op: _Op):
        if op.kind == _OP_ADD:
            return self._engine.add_hyperedge(op.members, name=op.name)
        if op.kind == _OP_REMOVE:
            return self._engine.remove_hyperedge(op.edge_id)
        return None  # barrier: its resolution is the acknowledgement

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting submissions, drain the queue, join the writer."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)
        # Fail anything a racing submit slipped in behind the sentinel, so
        # no caller blocks forever on an abandoned future.  The drain runs
        # on both sides of the _drained flag flip: a submit that misses the
        # first drain either lands before the second one, or observes
        # _drained afterwards and fails its own future (see _submit).
        self._drain_and_fail()
        self._drained = True
        self._drain_and_fail()

    def _drain_and_fail(self) -> None:
        while True:
            try:
                op = self._queue.get_nowait()
            except queue.Empty:
                return
            if op is not None:
                _fail_future(
                    op.future,
                    ValidationError(
                        "admission queue closed before this update was applied"
                    ),
                )

    def __enter__(self) -> "AdmissionQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

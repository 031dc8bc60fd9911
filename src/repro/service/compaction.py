"""Background compaction: fold the WAL into a new snapshot generation.

Between compactions the write-ahead log grows with every admitted batch and
every reader reload replays it in full, so recovery and replica-refresh
costs climb linearly.  :class:`CompactionPolicy` says *when* folding is
worth it (a WAL record threshold); the
:class:`BackgroundCompactor` thread evaluates the policy off the query
path and runs :meth:`~repro.store.PersistentQueryEngine.compact` under the
service's exclusive lock, cooperating with the admission writer.  A
requested compaction runs the same routine, so every compaction is counted
alike.  Readers in other processes pick the new generation up through
their change token (:class:`~repro.service.ReadReplica` hot reload); their
already-open mmaps of the swept generation stay valid until their
in-flight queries finish.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs import get_registry
from repro.service.sync import RWLock
from repro.store.format import WriterAheadOfLogError
from repro.store.persistent import PersistentQueryEngine
from repro.utils.log import get_logger
from repro.utils.validation import check_positive_int

_log = get_logger("service.compaction")


@dataclass(frozen=True)
class CompactionPolicy:
    """The threshold that triggers folding the WAL into a fresh snapshot.

    Compaction runs when the log holds at least ``max_wal_records``
    records.  An empty log never triggers.
    """

    max_wal_records: int

    def __post_init__(self) -> None:
        check_positive_int(self.max_wal_records, "max_wal_records")

    def should_compact(self, wal_records: int) -> bool:
        return wal_records > 0 and wal_records >= self.max_wal_records


class BackgroundCompactor:
    """Compacts a persistent engine on request, and from a daemon thread
    when a policy is given and fires.

    Parameters
    ----------
    engine:
        The (writable) store-backed engine to compact.
    write_lock:
        The service's :class:`RWLock`; compaction holds its exclusive side,
        so it serialises against the admission writer and in-flight
        queries without any extra protocol.
    policy / poll_interval:
        When to compact, and how often to check; ``None`` starts no
        thread, and only :meth:`maybe_compact` with ``force`` compacts.
    """

    def __init__(
        self,
        engine: PersistentQueryEngine,
        write_lock: RWLock,
        policy: Optional[CompactionPolicy],
        poll_interval: float = 0.1,
    ) -> None:
        self._engine = engine
        self._write_lock = write_lock
        self.policy = policy
        self._poll_interval = float(poll_interval)
        self._stop = threading.Event()
        #: Completed compactions (observability / tests).
        self.compactions = 0
        registry = get_registry()
        self._m_compactions = registry.counter(
            "repro_compactions_total", "WAL-folding compactions completed."
        )
        self._m_duration = registry.histogram(
            "repro_compaction_seconds",
            "Wall time of one compaction (exclusive lock held).",
        )
        self._m_folded_records = registry.counter(
            "repro_compaction_folded_records_total",
            "WAL records folded into snapshots by compaction.",
        )
        self._m_folded_bytes = registry.counter(
            "repro_compaction_folded_bytes_total",
            "WAL bytes folded into snapshots by compaction.",
        )
        self._thread: Optional[threading.Thread] = None
        if policy is not None:
            self._thread = threading.Thread(
                target=self._run, name="background-compactor", daemon=True
            )
            self._thread.start()

    def _wal_bytes(self) -> int:
        try:
            return os.path.getsize(self._engine.store.wal.path)
        except OSError:
            return 0

    def _run(self) -> None:
        while not self._stop.wait(self._poll_interval):
            try:
                self.maybe_compact()
            except WriterAheadOfLogError:
                # Every later tick would fail alike until a restart serves
                # the logged state: say so once and stop.
                _log.error("background compaction stopped", exc_info=True)
                return
            except Exception:
                # Compaction failure must not kill the service loop; the
                # WAL stays authoritative and the next tick retries — but
                # a silent retry loop hides a dying disk, so say so.
                _log.warning(
                    "background compaction failed; retrying next tick",
                    exc_info=True,
                )
                continue

    def maybe_compact(self, force: bool = False) -> bool:
        """Compact now if the policy (or ``force``) says so; True when run."""
        if not force and not (
            self.policy is not None
            and self.policy.should_compact(self._engine.store.num_wal_records())
        ):
            return False
        folded_records = self._engine.store.num_wal_records()
        folded_bytes = self._wal_bytes()
        start = time.perf_counter()
        with self._write_lock.write():
            self._engine.compact()
        self._m_duration.observe(time.perf_counter() - start)
        self._m_compactions.inc()
        self._m_folded_records.inc(folded_records)
        self._m_folded_bytes.inc(folded_bytes)
        self.compactions += 1
        return True

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the polling thread (any in-progress compaction finishes)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

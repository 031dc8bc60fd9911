"""Cross-process single-writer protocol for a shared store directory.

Exactly one process may hold a store open for writing; any number may hold
read-only handles.  :class:`StoreLock` enforces the writer side with an
advisory ``flock`` on ``<store>/writer.lock`` plus human-readable lease
metadata (pid, host, acquisition time) written into the lock file so
operators — and error messages — can name the current writer.

The kernel releases an ``flock`` when its holder dies, so a crashed writer
never wedges the store: the next ``acquire`` succeeds and overwrites the
stale lease.
"""

from __future__ import annotations

import fcntl
import json
import os
import socket
import time
from typing import Optional

from repro.store.format import LOCK_NAME, PathLike, StoreError


class StoreLockHeldError(StoreError):
    """Another process already holds the store's writer lock."""


def _lease_payload(owner: Optional[str]) -> dict:
    return {
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "acquired_unix": time.time(),
        "owner": owner or f"pid-{os.getpid()}",
    }


class StoreLock:
    """Advisory writer lock on one store directory (see module docstring).

    Usage::

        with StoreLock(store_path).acquire():
            ...  # exclusive write access until the block exits

    ``acquire(blocking=False)`` raises :class:`StoreLockHeldError`
    immediately when the lock is taken; ``timeout`` bounds a blocking
    acquire by polling.  The lock is *not* re-entrant.
    """

    def __init__(self, store_path: PathLike, owner: Optional[str] = None) -> None:
        self.path = os.path.join(str(store_path), LOCK_NAME)
        self.owner = owner
        self._fd: Optional[int] = None

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def held(self) -> bool:
        """True while *this object* holds the lock."""
        return self._fd is not None

    def holder(self) -> Optional[dict]:
        """Lease metadata of the current (or last) writer, if readable.

        The lease outlives a crashed holder (``flock`` does not), so treat
        it as diagnostic: "who was the writer" rather than "is it locked".
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            lease = json.loads(text)
        except json.JSONDecodeError:
            return None
        return lease if isinstance(lease, dict) else None

    # ------------------------------------------------------------------ #
    # Acquire / release
    # ------------------------------------------------------------------ #
    def acquire(
        self, blocking: bool = True, timeout: Optional[float] = None
    ) -> "StoreLock":
        """Take the writer lock, returning ``self`` (for ``with`` chaining)."""
        if self._fd is not None:
            raise StoreError(f"writer lock {self.path} is already held by this handle")
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._acquire_flock(blocking, timeout)
        self._write_lease()
        return self

    def _locked_error(self) -> StoreLockHeldError:
        lease = self.holder()
        who = (
            f"{lease.get('owner')} (pid {lease.get('pid')} on {lease.get('host')})"
            if lease
            else "another process"
        )
        return StoreLockHeldError(
            f"store writer lock {self.path} is held by {who}; open the store "
            "read-only, or stop the other writer"
        )

    def _acquire_flock(self, blocking: bool, timeout: Optional[float]) -> None:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if blocking and timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                deadline = None if timeout is None else time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if (
                            not blocking
                            or deadline is not None
                            and time.monotonic() >= deadline
                        ):
                            raise self._locked_error() from None
                        time.sleep(0.02)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def _write_lease(self) -> None:
        assert self._fd is not None
        body = json.dumps(_lease_payload(self.owner), sort_keys=True)
        os.ftruncate(self._fd, 0)
        os.lseek(self._fd, 0, os.SEEK_SET)
        os.write(self._fd, body.encode("utf-8"))

    def release(self) -> None:
        """Drop the lock (idempotent).  The lease text is left as a tombstone."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Context manager / dunders
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "StoreLock":
        if self._fd is None:
            self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "held" if self.held else "free"
        return f"StoreLock(path={self.path!r}, {state})"


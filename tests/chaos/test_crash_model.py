"""One model, every crash: the store, engine and mirror against the oracle.

A Hypothesis state machine drives a :class:`PersistentQueryEngine`, the
:class:`IndexStore` under it and a :class:`StoreMirror` of that store
through adds, removes, group-committed batches, compactions, mirror syncs
and cold read-only opens, and crashes the writer at each of the eight
failpoints those six ops pass through.  The model is a plain list of
member lists (a removed hyperedge is ``[]``); every step must leave the
engine serving exactly what :class:`SLinePipeline` computes from it.

**A crash is a fork.**  An in-process ``error`` is not a crash: it runs
the ``finally`` cleanups (rollbacks, flushes, closes) a killed process
never gets to.  So the crash rule forks; the child arms a ``crash``
failpoint (``os._exit(17)`` at that point, no cleanup at all), runs one
op and always ends in ``os._exit``.  The parent waits for it, drops its
objects and reopens from disk, then requires

    acked ⊆ served ⊆ acked ∪ {in-flight}

— a child that finished the op (exit 0) must have made it durable, a
child that died mid-op (exit 17) leaves exactly one candidate state
served: without the op, with it, or (for a batch) with a prefix of it.
Read-only ops and compaction never change the served fingerprint.

**A refusal is not a crash.**  A typed ``ENOSPC`` at ``wal.append`` or
``wal.fsync`` must reach the caller as that ``OSError``; the engine may
then be ahead of its log, so it is dropped and reopened.  An op refused
at ``wal.append`` is absent after the reopen; one refused at
``wal.fsync`` is indeterminate.
"""

from __future__ import annotations

import errno
import os
import select
import shutil
import signal
import tempfile
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.chaos import failpoints as fp
from repro.chaos.failpoints import (
    REPL_FETCH,
    REPL_MANIFEST,
    REPL_WAL,
    STORE_COMPACT_FOLD,
    STORE_COMPACT_INSTALL,
    STORE_SHARD_LOAD,
    WAL_APPEND,
    WAL_FSYNC,
)
from repro.chaos.harness import (
    Edges,
    Op,
    diff_stores,
    fingerprint,
    oracle_divergences,
    outcomes,
    served_one_of,
)
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.store import LocalReplicationSource, StoreMirror
from repro.store.persistent import PersistentQueryEngine

pytestmark = pytest.mark.skipif(
    not hasattr(os, "pidfd_open"), reason="crashes are forked children (Linux)"
)

NUM_VERTICES = 10
#: The paper's Figure 1 example on vertices 0-5, plus three edges reaching 6-9.
SEED_EDGES = (
    [0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5], [5, 6, 7], [7, 8, 9], [2, 6, 9],
)
#: Exit status of a child killed by its ``crash`` failpoint.
CRASH_EXIT = 17
#: Exit status of a child whose op raised instead (a bug: crash never raises).
RAISED_EXIT = 3
#: A child still alive this long after the fork is deadlocked.
CHILD_DEADLINE_S = 30.0

#: The ops that pass through each failpoint.
REACHED_BY: Dict[str, Tuple[str, ...]] = {
    WAL_APPEND.name: ("add", "remove", "batch"),
    WAL_FSYNC.name: ("batch",),  # a lone append fsyncs on its own, unhooked
    STORE_COMPACT_FOLD.name: ("compact",),
    STORE_COMPACT_INSTALL.name: ("compact",),
    STORE_SHARD_LOAD.name: ("cold_read",),
    REPL_MANIFEST.name: ("sync",),
    REPL_WAL.name: ("sync",),  # a delta sync: the mirror holds the generation
    REPL_FETCH.name: ("sync",),  # a full sync: first, or after a compaction
}


def crash_points(kind: str) -> st.SearchStrategy:
    """Where an op of ``kind`` may crash; shrinks to ``None``, no crash."""
    return st.sampled_from((None,) + tuple(p for p, ks in REACHED_BY.items() if kind in ks))


members = st.lists(
    st.integers(0, NUM_VERTICES - 1), min_size=1, max_size=4, unique=True
).map(sorted)
batches = st.lists(members, min_size=2, max_size=4)


def wait_child(pid: int) -> int:
    """Exit code of the forked child ``pid``; SIGKILL and fail on a hang."""
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], CHILD_DEADLINE_S)
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail(f"crash child still running {CHILD_DEADLINE_S:.0f}s after fork")
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class CrashModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="crash-model-")
        self.store_path = os.path.join(self.root, "store")
        self.mirror_path = os.path.join(self.root, "mirror")
        self.edges: Edges = [list(e) for e in SEED_EDGES]
        h = hypergraph_from_edge_lists(self.edges, num_vertices=NUM_VERTICES)
        self.engine = PersistentQueryEngine.build(h, self.store_path, num_shards=2)

    def teardown(self) -> None:
        self.engine.close()
        fp.reset()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- ops ------------------------------------------------------------ #
    def run(self, op: Op) -> None:
        kind, arg = op
        if kind == "add":
            self.engine.add_hyperedge(arg)
        elif kind == "remove":
            self.engine.remove_hyperedge(arg)
        elif kind == "batch":
            with self.engine.store.batch():
                for m in arg:
                    self.engine.add_hyperedge(m)
        elif kind == "compact":
            self.engine.compact()
        elif kind == "sync":  # a fresh mirror: a restarted follower
            StoreMirror(LocalReplicationSource(self.store_path), self.mirror_path).sync()
        else:
            reader = PersistentQueryEngine.open(self.store_path, read_only=True)
            try:
                reader.line_graph(1)
                assert reader.fingerprint() == fingerprint(self.edges, NUM_VERTICES)
            finally:
                reader.close()

    def reopen(self) -> None:
        self.engine.close()
        self.engine = PersistentQueryEngine.open(self.store_path)

    def served_one_of(self, candidates: Sequence[Edges]) -> Edges:
        return served_one_of(self.engine.fingerprint(), candidates, NUM_VERTICES)

    def do(self, op: Op, at: Optional[str] = None) -> int:
        """Run ``op`` in process, or in a child armed to crash ``at``; the exit."""
        if at is None:
            self.run(op)
            status = 0
        else:
            status = self.crash(at, op)
        if status == 0:
            self.edges = outcomes(self.edges, op)[-1]
            if op[0] == "sync":
                assert diff_stores(self.store_path, self.mirror_path) == []
        else:
            self.edges = self.served_one_of(outcomes(self.edges, op))
        return status

    def crash(self, point: str, op: Op) -> int:
        """Run ``op`` in a forked child that dies at ``point``, then reopen."""
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            code = RAISED_EXIT
            try:
                fp.activate(point, "crash", value=CRASH_EXIT)
                self.run(op)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        status = wait_child(pid)
        assert status in (0, CRASH_EXIT), f"child crashing at {point} exited {status}"
        self.reopen()
        return status

    def refuse(self, point: str, op: Op) -> None:
        """Run ``op`` with one ENOSPC armed at ``point``, then reopen."""
        fp.activate(point, "error", value=errno.ENOSPC, count=1)
        raised: Optional[OSError] = None
        try:
            self.run(op)
        except OSError as exc:
            raised = exc
        finally:
            fp.deactivate(point)
        assert raised is not None and raised.errno == errno.ENOSPC, raised
        self.reopen()  # the engine may be ahead of its log
        candidates = outcomes(self.edges, op)
        if point == WAL_APPEND.name:  # refused before any byte reached the log
            candidates = candidates[:1]
        self.edges = self.served_one_of(candidates)

    # -- rules ---------------------------------------------------------- #
    @rule(m=members, at=crash_points("add"))
    def add(self, m: List[int], at: Optional[str]) -> None:
        self.do(("add", m), at)

    @rule(seed=st.integers(0, 1 << 16), at=crash_points("remove"))
    def remove(self, seed: int, at: Optional[str]) -> None:
        self.do(("remove", seed % len(self.edges)), at)

    @rule(ms=batches, at=crash_points("batch"))
    def batch(self, ms: Edges, at: Optional[str]) -> None:
        self.do(("batch", ms), at)

    @rule(at=crash_points("compact"))
    def compact(self, at: Optional[str]) -> None:
        self.do(("compact", None), at)

    @rule(at=crash_points("sync"))
    def sync(self, at: Optional[str]) -> None:
        self.do(("sync", None), at)

    @rule(at=crash_points("cold_read"))
    def cold_read(self, at: Optional[str]) -> None:
        self.do(("cold_read", None), at)

    @rule(m=members)
    def refuse_add(self, m: List[int]) -> None:
        self.refuse(WAL_APPEND.name, ("add", m))

    @rule(ms=batches, at=st.sampled_from((WAL_APPEND.name, WAL_FSYNC.name)))
    def refuse_batch(self, ms: Edges, at: str) -> None:
        self.refuse(at, ("batch", ms))

    # -- invariants ----------------------------------------------------- #
    @invariant()
    def serves_the_oracle(self) -> None:
        assert self.engine.fingerprint() == fingerprint(self.edges, NUM_VERTICES)
        served = self.engine.metric_by_hyperedge
        assert oracle_divergences(served, self.edges, NUM_VERTICES) == []


CrashModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, report_multiple_bugs=False
)
TestCrashModel = CrashModel.TestCase

ADD: Op = ("add", [0, 5, 9])
SYNC: Op = ("sync", None)
#: For each point, the ops that bring the model to it and the op that hits it.
POINT_PATHS: Dict[str, Tuple[Tuple[Op, ...], Op]] = {
    WAL_APPEND.name: ((), ADD),
    WAL_FSYNC.name: ((), ("batch", [[0, 5], [3, 8, 9]])),
    STORE_COMPACT_FOLD.name: ((SYNC, ADD), ("compact", None)),
    STORE_COMPACT_INSTALL.name: ((SYNC, ADD), ("compact", None)),
    STORE_SHARD_LOAD.name: ((), ("cold_read", None)),
    REPL_MANIFEST.name: ((), SYNC),
    REPL_WAL.name: ((SYNC, ADD), SYNC),
    REPL_FETCH.name: ((), SYNC),
}


@pytest.mark.parametrize("point", sorted(REACHED_BY))
def test_every_point_crashes_and_recovers(point):
    """Each point is reached and crashed, whatever Hypothesis draws; a
    completed sync after the crash leaves the mirror byte-identical."""
    machine = CrashModel()
    try:
        prelude, op = POINT_PATHS[point]
        for step in prelude:
            machine.do(step)
        assert machine.do(op, at=point) == CRASH_EXIT
        machine.do(SYNC)
        machine.serves_the_oracle()
    finally:
        machine.teardown()

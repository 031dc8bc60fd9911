"""Drive live serving processes and check what they serve.

:class:`ManagedProcess` runs a ``repro`` CLI child and reads its JSON
announcements, :func:`wait_until` polls against a deadline, and
:func:`diff_stores` byte-compares a store with its mirror.  The checks:
:func:`oracle_divergences` names the :data:`ORACLE_QUERIES` served
differently from the :class:`~repro.core.pipeline.SLinePipeline` oracle,
and :func:`served_one_of` holds a served fingerprint to ``acked ⊆ served
⊆ acked ∪ in-flight`` over the :func:`outcomes` of the interrupted op.
The crash model and the drills (``tests/chaos``), the multiprocess
service tests and ``benchmarks/e2e`` share them.
"""

from __future__ import annotations

import functools
import json
import os
import queue
import signal
import subprocess
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import repro
from repro.core.pipeline import SLinePipeline
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.hypergraph import Hypergraph

#: Wall-clock budget for any single wait (process line, convergence, probe
#: flip).  Generous: CI machines stall; a stuck drill still dies fast
#: enough for the job timeout to attribute it.
DEFAULT_TIMEOUT = 60.0


class ScenarioError(AssertionError):
    """A chaos invariant did not hold (or the stack failed to come up)."""


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = DEFAULT_TIMEOUT,
    interval: float = 0.05,
    description: str = "condition",
) -> float:
    """Poll ``predicate`` until true; returns elapsed seconds.

    Exceptions from the predicate count as "not yet" — probing a process
    that is mid-restart raises connection errors by design.
    """
    start = time.monotonic()
    deadline = start + timeout
    while True:
        try:
            if predicate():
                return time.monotonic() - start
        except Exception:
            pass
        if time.monotonic() > deadline:
            raise ScenarioError(f"timed out after {timeout:.0f}s waiting for {description}")
        time.sleep(interval)


# --------------------------------------------------------------------- #
# Subprocess management
# --------------------------------------------------------------------- #
def harness_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Subprocess environment with this interpreter's ``repro`` importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update(extra)
    return env


class ManagedProcess:
    """A CLI subprocess whose JSON stdout lines the harness consumes.

    ``repro serve``/``repro replicate`` announce their sockets as JSON
    lines (``{"op": "listening", ...}``); :meth:`expect` reads forward to
    a named announcement.  stdout and stderr are pumped on background
    threads so a chatty child can never fill a pipe and deadlock its
    reader, and stderr is kept for failure reports.
    """

    def __init__(
        self,
        argv: Sequence[str],
        env: Optional[Dict[str, str]] = None,
        name: str = "proc",
    ) -> None:
        self.name = name
        self.argv = list(argv)
        self.proc = subprocess.Popen(
            self.argv,
            env=env if env is not None else harness_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr: List[str] = []
        self._pumps = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True),
        ]
        for pump in self._pumps:
            pump.start()

    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:  # type: ignore[union-attr]
            self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:  # type: ignore[union-attr]
            self._stderr.append(line)

    def expect(self, op: str, timeout: float = DEFAULT_TIMEOUT) -> Dict[str, object]:
        """Read stdout lines until one with ``{"op": op}``; return it."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ScenarioError(
                    f"{self.name}: no {op!r} line within {timeout:.0f}s"
                    f"{self.stderr_tail()}"
                )
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if line is None:
                raise ScenarioError(
                    f"{self.name}: exited (rc={self.proc.poll()}) before "
                    f"announcing {op!r}{self.stderr_tail()}"
                )
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if payload.get("op") == op:
                return payload

    def stderr_tail(self) -> str:
        """The last 15 stderr lines under a header ('' when there are none)."""
        tail = "".join(self._stderr[-15:]).strip()
        return f"\n--- {self.name} stderr ---\n{tail}" if tail else ""

    @property
    def running(self) -> bool:
        return self.proc.poll() is None

    def wait_exit(self, timeout: float = DEFAULT_TIMEOUT) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ScenarioError(
                f"{self.name}: still running {timeout:.0f}s after expected exit"
            ) from exc

    def terminate(self) -> None:
        """Graceful stop (SIGTERM — the CLI's drain-and-release path)."""
        if self.running:
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        if self.running:
            self.proc.kill()

    def close(self, timeout: float = 10.0) -> None:
        self.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait(timeout=timeout)


# --------------------------------------------------------------------- #
# Store comparison (byte-identical mirror convergence)
# --------------------------------------------------------------------- #
#: Files legitimately differing between a writer store and its mirror:
#: the mirror's sync cursor and each side's writer-lock lease.
_NON_STORE_FILES = {"replication.json", "writer.lock"}
_TRANSIENT_SUFFIXES = (".sync", ".staged", ".tmp")


def store_files(path: str) -> Dict[str, str]:
    """Store-relevant relative paths under ``path``."""
    out: Dict[str, str] = {}
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            if name in _NON_STORE_FILES or name.endswith(_TRANSIENT_SUFFIXES):
                continue
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, path)] = full
    return out


def diff_stores(writer_path: str, mirror_path: str) -> List[str]:
    """Byte-compare two store directories; returns human-readable diffs."""
    a, b = store_files(writer_path), store_files(mirror_path)
    problems = [f"only in writer: {name}" for name in sorted(set(a) - set(b))]
    problems += [f"only in mirror: {name}" for name in sorted(set(b) - set(a))]
    for name in sorted(set(a) & set(b)):
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"bytes differ: {name}")
    return problems


# --------------------------------------------------------------------- #
# The oracle and the durability check
# --------------------------------------------------------------------- #
def oracle_values_json(h: Hypergraph, s: int, metric: str) -> str:
    """Pipeline oracle serialised exactly like the wire's ``values``."""
    pipeline = SLinePipeline(
        metrics=(metric,), drop_empty_edges=False, drop_isolated_vertices=False
    )
    values = pipeline.run(h, s).metric_by_hyperedge(metric)
    return json.dumps(
        {str(k): float(v) for k, v in sorted(values.items())}, sort_keys=True
    )


#: The (s, metric) pairs every oracle check serves and compares.
ORACLE_QUERIES: Tuple[Tuple[int, str], ...] = (
    (1, "connected_components"),
    (2, "connected_components"),
    (2, "pagerank"),
)


#: Hyperedge member lists in ID order (a removed hyperedge is ``[]``).
Edges = List[List[int]]
#: An update as ``(kind, argument)``; see :func:`outcomes`.
Op = Tuple[str, object]


def outcomes(edges: Edges, op: Op) -> List[Edges]:
    """Every state ``op`` on ``edges`` may leave durable, the finished one last.

    ``("add", members)`` and ``("remove", index)`` happened or did not;
    ``("batch", [members, ...])`` may stop after any prefix; any other op
    leaves the hyperedges as they were.
    """
    kind, arg = op
    if kind == "add":
        return [edges, edges + [arg]]
    if kind == "remove":
        return [edges, edges[:arg] + [[]] + edges[arg + 1:]]
    if kind == "batch":
        return [edges + arg[:k] for k in range(len(arg) + 1)]
    return [edges]


def fingerprint(edges: Edges, num_vertices: int) -> str:
    """The fingerprint of a store serving exactly ``edges``."""
    return hypergraph_from_edge_lists(edges, num_vertices=num_vertices).fingerprint()


def served_one_of(served: str, candidates: Sequence[Edges], num_vertices: int) -> Edges:
    """The candidate a store whose fingerprint is ``served`` holds.

    ``candidates`` are :func:`outcomes` of the interrupted op, so a match
    is exactly ``acked ⊆ served ⊆ acked ∪ in-flight``; no match raises
    :class:`ScenarioError`.
    """
    matching = {fingerprint(c, num_vertices): c for c in candidates}
    if served not in matching:
        raise ScenarioError(
            "served state is neither the acked state nor acked plus the "
            "in-flight op: an acknowledged update was lost or a phantom written"
        )
    return matching[served]


@functools.lru_cache(maxsize=256)
def _oracle(edges: Tuple[Tuple[int, ...], ...], num_vertices: int) -> Tuple[str, ...]:
    """Every ``ORACLE_QUERIES`` answer for ``edges`` (most checks revisit a state)."""
    h = hypergraph_from_edge_lists(edges, num_vertices=num_vertices)
    return tuple(oracle_values_json(h, s, metric) for s, metric in ORACLE_QUERIES)


def oracle_divergences(
    metric: Callable[[int, str], Mapping], edges: Edges, num_vertices: int
) -> List[str]:
    """The ``ORACLE_QUERIES`` served differently from the oracle on ``edges``.

    ``metric(s, name)`` returns the served ``{hyperedge: value}``; it is
    compared with the oracle as JSON text.  Returns ``"<name>/s=<s>"`` per
    divergence.
    """
    expected = _oracle(tuple(map(tuple, edges)), num_vertices)
    diverged = []
    for (s, name), values in zip(ORACLE_QUERIES, expected):
        served = {str(k): v for k, v in metric(s, name).items()}
        if json.dumps(served, sort_keys=True) != values:
            diverged.append(f"{name}/s={s}")
    return diverged

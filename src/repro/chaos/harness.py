"""Chaos scenario toolkit: live multi-process serving stacks under fault.

The harness stands up the same topology production runs — a writer
``repro serve --listen`` process, optionally a chained ``repro replicate
--serve`` remote read replica, each with a ``/metrics`` + probes listener
— as *subprocesses*, drives mixed query/update traffic over the real
socket protocol, injects faults through the failpoint subsystem
(:mod:`repro.chaos.failpoints`, controlled remotely via the gated
``chaos`` op), and measures three of the four orthogonal correctness
axes the CI gate consumes (:mod:`benchmarks.check_axes`):

**correctness** — served metric values must equal the
:class:`repro.core.pipeline.SLinePipeline` oracle byte-for-byte (JSON
text), and the observability invariants must hold (lag gauges move,
``/readyz`` flips, slow-query entries link to buffered traces);

**durability** — every *acknowledged* update survives every crash.  The
single in-flight update at a kill is *indeterminate* (the ack never
arrived); it is resolved after restart against the served hypergraph
fingerprint, so the invariant checked is exactly
``acked ⊆ served ⊆ acked ∪ indeterminate``;

**freshness** — replica generation lag (p95 over healthy-phase samples)
and time-to-ready after a heal/restart, against an SLO.

(The fourth axis, **throughput**, comes from the existing ``BENCH_*``
headline floors — a chaos run must not be the thing that measures
steady-state speed.)

Scenarios themselves live in :mod:`repro.chaos.scenarios`.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request as _HttpRequest
from urllib.request import urlopen

import repro
from repro.core.pipeline import SLinePipeline
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.hypergraph import Hypergraph
from repro.utils.rng import make_rng

#: Wall-clock budget for any single wait (process line, convergence, probe
#: flip).  Generous: CI machines stall; a stuck scenario still dies fast
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
    threads so a chatty child can never fill a pipe and deadlock the
    scenario, and stderr is kept for failure reports.
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
                    f"{self._stderr_suffix()}"
                )
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if line is None:
                raise ScenarioError(
                    f"{self.name}: exited (rc={self.proc.poll()}) before "
                    f"announcing {op!r}{self._stderr_suffix()}"
                )
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if payload.get("op") == op:
                return payload

    def _stderr_suffix(self) -> str:
        tail = "".join(self._stderr[-15:]).strip()
        return f"\n--- {self.name} stderr ---\n{tail}" if tail else ""

    @property
    def running(self) -> bool:
        return self.proc.poll() is None

    @property
    def returncode(self) -> Optional[int]:
        return self.proc.poll()

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
# HTTP probe / metrics-scrape helpers
# --------------------------------------------------------------------- #
def probe(base_url: str, path: str, method: str = "GET") -> Tuple[int, Dict[str, object]]:
    """Hit ``/healthz``-style endpoint; returns ``(status, json payload)``.

    A 503 is a *successful probe answer* here (the readiness contract),
    so it is returned, not raised; only transport-level failures raise.
    """
    request = _HttpRequest(base_url.rstrip("/") + path, method=method)
    try:
        with urlopen(request, timeout=10.0) as response:
            body = response.read()
            status = response.status
    except HTTPError as exc:
        body = exc.read()
        status = exc.code
    payload: Dict[str, object] = {}
    if body:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError:
            payload = {"raw": body.decode("utf-8", "replace")}
    return status, payload


def scrape_metrics(metrics_url: str) -> Dict[str, float]:
    """``/metrics`` exposition text as ``{"name{labels}": value}``."""
    with urlopen(metrics_url, timeout=10.0) as response:
        text = response.read().decode("utf-8")
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            values[key] = float(value)
        except ValueError:
            continue
    return values


def metric_value(
    scraped: Dict[str, float], name: str, labels: Optional[Dict[str, str]] = None
) -> Optional[float]:
    """First sample matching ``name`` and the given label subset."""
    wanted = [f'{k}="{v}"' for k, v in (labels or {}).items()]
    for key, value in scraped.items():
        if (key == name or key.startswith(name + "{")) and all(w in key for w in wanted):
            return value
    return None


class LagSampler(threading.Thread):
    """Samples a replica's lag gauges at ~10 Hz into ``(t, gen, wal)`` rows."""

    def __init__(self, metrics_url: str, interval: float = 0.1) -> None:
        super().__init__(name="chaos-lag-sampler", daemon=True)
        self.metrics_url = metrics_url
        self.interval = interval
        self.samples: List[Tuple[float, float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                scraped = scrape_metrics(self.metrics_url)
            except (OSError, URLError):
                continue
            gen = metric_value(scraped, "repro_replica_generation_lag")
            wal = metric_value(scraped, "repro_replica_wal_lag_bytes")
            if gen is not None or wal is not None:
                self.samples.append((time.monotonic(), gen or 0.0, wal or 0.0))

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def window(
        self, start: float, end: Optional[float] = None
    ) -> List[Tuple[float, float, float]]:
        end = end if end is not None else float("inf")
        return [s for s in self.samples if start <= s[0] <= end]


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


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
# Oracle + update ledger
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


@dataclass
class UpdateLedger:
    """What the harness *knows* about issued updates, in issue order.

    ``acked`` holds member lists whose durability ack arrived.  At most
    one op is ``indeterminate``: the single in-flight update when its
    connection died (the updater is one thread issuing strictly
    sequential waited adds, so there can never be two).  Known-failed
    ops (the server answered with a typed error) belong to neither —
    they consumed no hyperedge ID.
    """

    acked: List[List[int]] = field(default_factory=list)
    indeterminate: Optional[List[int]] = None
    known_failed: int = 0

    def resolve(self, survived: bool) -> None:
        """Fold the indeterminate op into the ledger after a crash."""
        if self.indeterminate is not None and survived:
            self.acked.append(self.indeterminate)
        self.indeterminate = None


class ChaosHarness:
    """One scenario's world: store, processes, traffic, ledger, checks."""

    def __init__(
        self,
        root: str,
        quick: bool = False,
        num_vertices: int = 48,
        num_seed_edges: int = 36,
    ) -> None:
        self.root = str(root)
        self.quick = quick
        self.num_vertices = num_vertices
        self.store_path = os.path.join(self.root, "store")
        self.failures: List[str] = []
        self.processes: List[ManagedProcess] = []
        self._edge_cursor = 0
        self.ledger = UpdateLedger()
        rng = make_rng(11)
        self.seed_edges: List[List[int]] = [
            sorted(
                set(
                    rng.choice(
                        num_vertices, size=2 + i % 4, replace=False
                    ).tolist()
                )
            )
            for i in range(num_seed_edges)
        ]
        from repro.store import IndexStore  # deferred: heavy import chain

        h = hypergraph_from_edge_lists(self.seed_edges, num_vertices=num_vertices)
        IndexStore.build(h, self.store_path, num_shards=4)

    # -- processes ------------------------------------------------------ #
    def start_writer(
        self,
        port: int = 0,
        max_batch: int = 16,
        extra_args: Iterable[str] = (),
    ) -> Tuple[ManagedProcess, Tuple[str, int], str]:
        """Launch ``repro serve`` (chaos-controllable); returns
        ``(process, socket address, metrics base URL)``."""
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--path", self.store_path,
            "--listen", f"127.0.0.1:{port}",
            "--metrics-port", "0",
            "--max-batch", str(max_batch),
            "--chaos",
            # Every request lands in the slow-query ring with a kept trace
            # so the slow-query -> trace linkage is assertable.
            "--slow-query-ms", "0",
            "--trace-slow-ms", "0",
            *extra_args,
        ]
        process = ManagedProcess(argv, name="writer")
        self.processes.append(process)
        metrics = process.expect("metrics-listening")
        listening = process.expect("listening")
        address = (str(listening["host"]), int(listening["port"]))
        base_url = f"http://{metrics['host']}:{metrics['port']}"
        return process, address, base_url

    def start_replica(
        self,
        source: Tuple[str, int],
        mirror_name: str = "mirror",
        poll_interval: float = 0.05,
        ready_max_lag: int = 1,
    ) -> Tuple[ManagedProcess, Tuple[str, int], str]:
        """Launch ``repro replicate --serve`` chained off ``source``."""
        mirror_path = os.path.join(self.root, mirror_name)
        argv = [
            sys.executable, "-m", "repro", "replicate",
            "--from", f"{source[0]}:{source[1]}",
            "--store", mirror_path,
            "--serve", "127.0.0.1:0",
            "--poll-interval", str(poll_interval),
            "--metrics-port", "0",
            "--ready-max-lag", str(ready_max_lag),
            "--chaos",
        ]
        process = ManagedProcess(argv, name="replica")
        self.processes.append(process)
        process.expect("synced")
        metrics = process.expect("metrics-listening")
        listening = process.expect("listening")
        address = (str(listening["host"]), int(listening["port"]))
        base_url = f"http://{metrics['host']}:{metrics['port']}"
        self.mirror_path = mirror_path
        return process, address, base_url

    def client(self, address: Tuple[str, int], **kwargs):
        from repro.service.transport import ServiceClient

        kwargs.setdefault("connect_retries", 40)
        kwargs.setdefault("retry_interval", 0.25)
        return ServiceClient(address[0], address[1], **kwargs).connect()

    def chaos(self, client, cmd: str, **fields) -> Dict[str, object]:
        """Drive the remote failpoint-control op on a live process."""
        return client.request({"op": "chaos", "cmd": cmd, **fields})

    def teardown(self) -> None:
        for process in self.processes:
            process.close()

    # -- traffic -------------------------------------------------------- #
    def next_edge(self) -> List[int]:
        """Deterministic, strictly in-range member list for the next add."""
        i = self._edge_cursor
        self._edge_cursor += 1
        base = (7 * i + 3) % self.num_vertices
        step = 1 + i % 5
        members = sorted(
            {(base + k * step) % self.num_vertices for k in range(2 + i % 3)}
        )
        if len(members) < 2:
            members = sorted({base, (base + 1) % self.num_vertices})
        return members

    def submit_updates(self, client, count: int) -> int:
        """Issue ``count`` waited adds; returns how many were acked.

        A typed server error records a known failure (the op consumed no
        edge ID); a transport failure records THE indeterminate op and
        stops — the caller decides how to resolve it after recovery.
        """
        from repro.service.transport import RemoteServiceError, TransportError

        done = 0
        for _ in range(count):
            members = self.next_edge()
            try:
                client.add(members)
            except RemoteServiceError:
                self.ledger.known_failed += 1
                continue
            except (TransportError, ConnectionError, OSError):
                self.ledger.indeterminate = members
                return done
            self.ledger.acked.append(members)
            done += 1
        return done

    def start_query_traffic(self, address: Tuple[str, int]) -> "QueryWorker":
        worker = QueryWorker(self, address)
        worker.start()
        return worker

    # -- oracle --------------------------------------------------------- #
    def expected_edges(self) -> List[List[int]]:
        return list(self.seed_edges) + list(self.ledger.acked)

    def oracle_hypergraph(self, edges: Optional[List[List[int]]] = None) -> Hypergraph:
        return hypergraph_from_edge_lists(
            edges if edges is not None else self.expected_edges(),
            num_vertices=self.num_vertices,
        )

    def resolve_indeterminate(self, client) -> bool:
        """Decide the crashed in-flight op's fate from the served state.

        The served hypergraph fingerprint must equal the fingerprint of
        *exactly one* ledger candidate — without the indeterminate op
        (it died before durability) or with it (the ack was lost in the
        crash, the write was not).  Anything else is an acked-update
        loss or a phantom write, and fails the durability axis.
        """
        served = str(client.fingerprint())
        without = self.oracle_hypergraph().fingerprint()
        if self.ledger.indeterminate is None:
            ok = served == without
            self.check(
                ok,
                f"served fingerprint {served[:12]} != expected (no in-flight op)",
            )
            return ok
        with_op = self.oracle_hypergraph(
            self.expected_edges() + [self.ledger.indeterminate]
        ).fingerprint()
        if served == with_op:
            self.ledger.resolve(survived=True)
            return True
        if served == without:
            self.ledger.resolve(survived=False)
            return True
        self.failures.append(
            "durability: served state matches neither acked nor "
            "acked+indeterminate — an acknowledged update was lost"
        )
        self.ledger.resolve(survived=False)
        return False

    def check_oracle(self, client, label: str) -> int:
        """Serve every oracle query; count (and record) divergences."""
        h = self.oracle_hypergraph()
        divergences = 0
        for s, metric in ORACLE_QUERIES:
            response = client.request({"op": "metric", "s": s, "metric": metric})
            served = json.dumps(response["values"], sort_keys=True)
            expected = oracle_values_json(h, s, metric)
            if served != expected:
                divergences += 1
                self.failures.append(
                    f"correctness[{label}]: {metric}/s={s} diverges from the oracle"
                )
        return divergences

    # -- assertions ----------------------------------------------------- #
    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return bool(condition)

    def await_ready(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> float:
        return wait_until(
            lambda: probe(base_url, "/readyz")[0] == 200,
            timeout=timeout,
            description=f"{base_url}/readyz -> 200",
        )

    def await_unready(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> float:
        return wait_until(
            lambda: probe(base_url, "/readyz")[0] == 503,
            timeout=timeout,
            description=f"{base_url}/readyz -> 503",
        )

    def await_converged(
        self, writer_client, replica_client, timeout: float = DEFAULT_TIMEOUT
    ) -> float:
        """Replica's local state token catches the writer's current one."""

        def caught_up() -> bool:
            target = writer_client.state_token()
            return target is not None and replica_client.state_token() == target

        return wait_until(caught_up, timeout=timeout, description="replica convergence")

    def check_slow_query_trace_linkage(self, client, label: str) -> bool:
        """A slow-query ring entry's trace_id must resolve to a buffered trace."""
        entries = [
            e
            for e in (client.stats().get("slow_queries") or [])
            if e.get("trace_id")
        ]
        if not entries:
            return self.check(False, f"observability[{label}]: slow-query ring empty")
        trace_id = str(entries[-1]["trace_id"])
        traces = client.traces(trace_id=trace_id, limit=1)
        return self.check(
            bool(traces) and traces[0].get("trace_id") == trace_id,
            f"observability[{label}]: slow-query trace_id {trace_id} has no "
            "buffered trace",
        )


class QueryWorker(threading.Thread):
    """Background read traffic: keeps the serving path hot during faults."""

    def __init__(self, harness: ChaosHarness, address: Tuple[str, int]) -> None:
        super().__init__(name="chaos-queries", daemon=True)
        self.harness = harness
        self.address = address
        self.ok = 0
        self.errors = 0
        self._halt = threading.Event()

    def run(self) -> None:
        client = None
        while not self._halt.is_set():
            try:
                if client is None:
                    client = self.harness.client(self.address, connect_retries=1)
                s, metric = ORACLE_QUERIES[self.ok % len(ORACLE_QUERIES)]
                client.request({"op": "metric", "s": s, "metric": metric})
                self.ok += 1
            except Exception:
                self.errors += 1
                if client is not None:
                    try:
                        client.close()
                    except Exception:
                        pass
                    client = None
                time.sleep(0.1)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)

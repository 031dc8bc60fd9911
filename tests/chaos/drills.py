"""Chaos drills: the serving stack under fault, as real processes.

Run by path (the file name keeps it out of the tier-1 ``pytest -x -q``)::

    PYTHONPATH=src python -m pytest tests/chaos/drills.py -q

Each drill stands up a writer ``repro serve`` and a replica ``repro
replicate --serve`` as subprocesses, each with ``--metrics-port 0
--chaos``.  It reads ``/readyz`` and ``/metrics`` over HTTP, arms
failpoints through the ``chaos`` wire op and kills the writer with
SIGKILL.

``test_partition_replica``
    An ``error`` failpoint at ``repl.manifest`` on the writer severs the
    replication plane while its stats/query plane stays up: the replica's
    lag gauges must rise and ``/readyz`` must flip to 503 (``last sync
    failed``) while stale reads keep serving.  After the heal the gauges
    return to zero, the probe to 200, and the mirror is byte-identical.
``test_restart_everything``
    SIGKILL and restart the writer in a loop under a long-lived replica:
    every cycle must reconverge with no acknowledged update lost, and the
    replica's open fds and RSS stay bounded across the cycles.

A drill collects its failed checks and asserts once, at the end, so a
freshness miss reports next to a passing oracle check.  A wait that times
out aborts the drill; its report carries the checks that failed before it
and each process's stderr tail.  Crash recovery at each store, engine and
mirror failpoint is ``test_crash_model.py``'s.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request as _HttpRequest
from urllib.request import urlopen

from repro.chaos.failpoints import REPL_MANIFEST
from repro.chaos.harness import (
    ORACLE_QUERIES,
    Edges,
    ManagedProcess,
    ScenarioError,
    diff_stores,
    oracle_divergences,
    outcomes,
    served_one_of,
    wait_until,
)
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.service.transport import RemoteServiceError, ServiceClient, TransportError
from repro.store import IndexStore
from repro.utils.rng import make_rng

#: Freshness SLO: seconds a node may take to answer ``/readyz`` 200 after
#: a restart or heal (generous for shared CI runners; a regression that
#: matters — a replica stuck re-fetching the whole store — blows way past it).
TIME_TO_READY_SLO_S = 30.0
#: Freshness SLO: p95 generation lag across post-heal/converged samples.
P95_GENERATION_LAG_SLO = 2.0
#: Leak bounds for the long-lived replica in ``test_restart_everything``.
FD_GROWTH_LIMIT = 20.0
RSS_GROWTH_LIMIT_BYTES = 96 * 1024 * 1024

NUM_VERTICES = 48
_rng = make_rng(11)
SEED_EDGES: Edges = [
    sorted(set(_rng.choice(NUM_VERTICES, size=2 + i % 4, replace=False).tolist()))
    for i in range(36)
]


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


class QueryTraffic(threading.Thread):
    """Background read traffic: keeps the serving path hot during faults."""

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__(name="chaos-queries", daemon=True)
        self.address = address
        self.ok = 0
        self._halt = threading.Event()

    def run(self) -> None:
        client = None
        while not self._halt.is_set():
            try:
                if client is None:
                    client = ServiceClient(*self.address, connect_retries=1).connect()
                s, metric = ORACLE_QUERIES[self.ok % len(ORACLE_QUERIES)]
                client.request({"op": "metric", "s": s, "metric": metric})
                self.ok += 1
            except Exception:
                if client is not None:
                    client.close()
                    client = None
                time.sleep(0.1)
        if client is not None:
            client.close()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


# --------------------------------------------------------------------- #
# One drill's world
# --------------------------------------------------------------------- #
class Drill:
    """A seeded store, its processes, what was acked, and what failed.

    A context manager: leaving it stops every thread, client and process
    it started, then raises one ``AssertionError`` listing every failed
    check (and the abort, if a wait timed out).
    """

    def __init__(self, root: str) -> None:
        self.store_path = os.path.join(root, "store")
        self.mirror_path = os.path.join(root, "mirror")
        #: The seed plus every acked add, in the order sent.
        self.edges: Edges = [list(e) for e in SEED_EDGES]
        #: The add whose connection died before its ack, if any.
        self.in_flight: Optional[List[int]] = None
        self.failures: List[str] = []
        self._cursor = 0
        self._processes: List[ManagedProcess] = []
        self._cleanup = contextlib.ExitStack()
        h = hypergraph_from_edge_lists(self.edges, num_vertices=NUM_VERTICES)
        IndexStore.build(h, self.store_path, num_shards=4)

    def __enter__(self) -> "Drill":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cleanup.close()
        if exc is not None:
            self.failures.append(f"aborted: {exc}")
        if self.failures:
            tails = "".join(p.stderr_tail() for p in self._processes)
            raise AssertionError("\n".join(self.failures) + tails) from exc

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    # -- processes ------------------------------------------------------ #
    def start_writer(self, port: int = 0) -> Tuple[ManagedProcess, Tuple[str, int], str]:
        """Launch ``repro serve`` on the store (``port`` 0: any free one)."""
        return self._launch("writer", [
            "serve", "--path", self.store_path, "--listen", f"127.0.0.1:{port}",
            "--max-batch", "16",
            # Every request is slow at 0 ms, so every one keeps its trace
            # and slow-trace retention is assertable.
            "--trace-slow-ms", "0",
        ])

    def start_replica(
        self, source: Tuple[str, int]
    ) -> Tuple[ManagedProcess, Tuple[str, int], str]:
        """Launch ``repro replicate --serve`` chained off ``source``."""
        return self._launch("replica", [
            "replicate", "--from", f"{source[0]}:{source[1]}",
            "--store", self.mirror_path, "--serve", "127.0.0.1:0",
            "--poll-interval", "0.05", "--ready-max-lag", "1",
        ])

    def _launch(
        self, name: str, argv: List[str]
    ) -> Tuple[ManagedProcess, Tuple[str, int], str]:
        """Run ``repro <argv>`` chaos-controllable with a metrics listener;
        returns ``(process, socket address, metrics base URL)`` once it
        announces both sockets (a replica announces them after its first
        sync)."""
        process = ManagedProcess(
            [sys.executable, "-m", "repro", *argv, "--metrics-port", "0", "--chaos"],
            name=name,
        )
        self._processes.append(process)
        self._cleanup.callback(process.close)
        metrics = process.expect("metrics-listening")
        listening = process.expect("listening")
        address = (str(listening["host"]), int(listening["port"]))
        return process, address, f"http://{metrics['host']}:{metrics['port']}"

    def client(self, address: Tuple[str, int]) -> ServiceClient:
        client = ServiceClient(*address).connect()
        self._cleanup.callback(client.close)
        return client

    def start(self, thread: threading.Thread) -> threading.Thread:
        """Start ``thread`` (a :class:`LagSampler` or :class:`QueryTraffic`)."""
        thread.start()
        self._cleanup.callback(thread.stop)
        return thread

    # -- traffic -------------------------------------------------------- #
    def next_edge(self) -> List[int]:
        """Deterministic, strictly in-range member list for the next add."""
        i = self._cursor
        self._cursor += 1
        base = (7 * i + 3) % NUM_VERTICES
        step = 1 + i % 5
        members = sorted({(base + k * step) % NUM_VERTICES for k in range(2 + i % 3)})
        if len(members) < 2:
            members = sorted({base, (base + 1) % NUM_VERTICES})
        return members

    def submit_updates(self, client: ServiceClient, count: int) -> None:
        """Send ``count`` waited adds, stopping at the first that fails.

        A typed refusal is a ``durability:`` failure (no drill injects
        one); a transport failure leaves that add :attr:`in_flight`.
        """
        for _ in range(count):
            members = self.next_edge()
            try:
                client.add(members)
            except RemoteServiceError as exc:
                self.failures.append(f"durability: add {members} refused: {exc}")
                return
            except (TransportError, ConnectionError, OSError):
                self.in_flight = members
                return
            self.edges.append(members)

    # -- checks --------------------------------------------------------- #
    def resolve_in_flight(self, client: ServiceClient) -> None:
        """Settle the in-flight add from the served fingerprint: after a
        crash the writer serves the acked adds, plus the in-flight one or
        not (:func:`~repro.chaos.harness.served_one_of`)."""
        candidates = [self.edges]
        if self.in_flight is not None:
            candidates = outcomes(self.edges, ("add", self.in_flight))
            self.in_flight = None
        try:
            self.edges = served_one_of(client.fingerprint(), candidates, NUM_VERTICES)
        except ScenarioError as exc:
            self.failures.append(f"durability: {exc}")

    def check_oracle(self, client: ServiceClient, label: str) -> None:
        """Every oracle query, served over the JSON plane, equals the
        pipeline's answer on the acked hyperedges."""

        def served(s: int, metric: str) -> Dict[str, float]:
            return client.request({"op": "metric", "s": s, "metric": metric})["values"]

        for query in oracle_divergences(served, self.edges, NUM_VERTICES):
            self.failures.append(f"correctness[{label}]: {query} diverges from the oracle")

    def check_slow_traces_kept(self, client: ServiceClient, label: str) -> None:
        """Slow-only tracing kept requests, and the newest kept trace
        resolves by its own ``trace_id``."""
        if int(client.stats()["tracing"].get("kept_slow") or 0) < 1:
            self.failures.append(f"observability[{label}]: no slow trace kept")
            return
        newest = client.traces(limit=1)
        trace_id = str(newest[-1]["trace_id"]) if newest else ""
        traces = client.traces(trace_id=trace_id, limit=1) if trace_id else []
        self.check(
            bool(traces) and traces[0].get("trace_id") == trace_id,
            f"observability[{label}]: newest trace {trace_id or '(none)'} does "
            "not resolve by its trace_id",
        )

    def await_readyz(self, base_url: str, status: int) -> float:
        """Seconds until ``/readyz`` answers ``status``; a timeout names
        the last answer."""
        last: List[object] = []

        def answered() -> bool:
            last[:] = [probe(base_url, "/readyz")]
            return last[0][0] == status

        try:
            return wait_until(answered, description=f"{base_url}/readyz -> {status}")
        except ScenarioError as exc:
            raise ScenarioError(f"{exc} (last answer: {last or 'none'})") from None

    def await_converged(self, writer: ServiceClient, replica: ServiceClient) -> float:
        """Replica's local state token catches the writer's current one."""

        def caught_up() -> bool:
            target = writer.state_token()
            return target is not None and replica.state_token() == target

        return wait_until(caught_up, description="replica convergence")


# --------------------------------------------------------------------- #
# The drills
# --------------------------------------------------------------------- #
def test_partition_replica(tmp_path):
    updates = 6
    with Drill(str(tmp_path)) as d:
        _, w_address, w_url = d.start_writer()
        w_client = d.client(w_address)
        d.submit_updates(w_client, updates)

        _, r_address, r_url = d.start_replica(w_address)
        r_client = d.client(r_address)
        d.await_converged(w_client, r_client)
        d.check_oracle(r_client, "replica-baseline")

        sampler = d.start(LagSampler(r_url))
        queries = d.start(QueryTraffic(r_address))

        # Partition the replication plane: every repl_manifest answer from
        # the writer now fails, while its stats/query plane keeps serving —
        # so the replica still *learns* how far behind it is (lag gauges
        # rise) but cannot close the gap.
        partition_at = time.monotonic()
        w_client.request(
            {"op": "chaos", "cmd": "activate", "point": REPL_MANIFEST.name, "action": "error"}
        )
        d.submit_updates(w_client, updates)
        # compact() resets the writer's token to (generation + 1, 0 WAL bytes),
        # so the wal-lag gauge can only read > 0 between the first acked update
        # and the compaction: hold the compaction until a sample has seen it.
        wait_until(
            lambda: any(s[2] > 0.0 for s in sampler.window(partition_at)),
            description="wal-lag gauge > 0 during partition",
        )
        w_client.compact()  # bumps the writer generation: generation lag >= 1
        d.await_readyz(r_url, 503)
        status, payload = probe(r_url, "/readyz")
        d.check(
            status == 503 and payload.get("reason") == "last sync failed",
            f"observability[partition]: /readyz ({status}, "
            f"{payload.get('reason')!r}) != (503, 'last sync failed')",
        )
        # Stale reads must keep flowing on the partitioned replica.
        stale = r_client.metric(1, "connected_components")
        d.check(bool(stale), "correctness[partition]: stale read returned nothing")
        wait_until(
            lambda: any(s[1] >= 1.0 for s in sampler.window(partition_at)),
            description="generation-lag gauge >= 1 during partition",
        )

        # Heal, reconverge, and require full observability recovery.
        heal_at = time.monotonic()
        w_client.request({"op": "chaos", "cmd": "deactivate", "point": REPL_MANIFEST.name})
        time_to_ready = d.await_readyz(r_url, 200)
        d.await_converged(w_client, r_client)
        queries.stop()
        d.check(queries.ok > 0, "correctness[partition]: no replica queries succeeded")
        d.check_oracle(r_client, "replica-healed")
        d.check_oracle(w_client, "writer-healed")
        wait_until(
            lambda: sampler.samples
            and sampler.samples[-1][1] == 0.0
            and sampler.samples[-1][2] == 0.0,
            description="lag gauges back to zero after heal",
        )
        sampler.stop()

        d.check(
            any(s[2] > 0.0 for s in sampler.window(partition_at, heal_at)),
            "observability[partition]: wal-lag gauge never rose during partition",
        )
        p95_lag = percentile([s[1] for s in sampler.window(heal_at)], 0.95)
        d.check(
            p95_lag <= P95_GENERATION_LAG_SLO,
            f"freshness: post-heal p95 generation lag {p95_lag} "
            f"(SLO {P95_GENERATION_LAG_SLO})",
        )
        d.check(
            time_to_ready <= TIME_TO_READY_SLO_S,
            f"freshness: replica took {time_to_ready:.1f}s to re-ready "
            f"(SLO {TIME_TO_READY_SLO_S:.0f}s)",
        )

        # The injected faults must be observable on the writer's /metrics.
        scraped = scrape_metrics(w_url + "/metrics")
        fired = metric_value(
            scraped, "chaos_failpoint_hits_total", {"point": REPL_MANIFEST.name}
        )
        d.check(
            fired is not None and fired >= 1.0,
            "observability[partition]: chaos_failpoint_hits_total{point=repl.manifest} "
            f"= {fired}, expected >= 1",
        )
        d.check_slow_traces_kept(w_client, "partition")

        # Mirror must be byte-identical once converged and traffic stopped.
        problems = diff_stores(d.store_path, d.mirror_path)
        d.check(
            not problems,
            "correctness[partition]: mirror differs from writer store: "
            + "; ".join(problems[:5]),
        )


def test_restart_everything(tmp_path):
    cycles, updates = 2, 5
    with Drill(str(tmp_path)) as d:
        writer, w_address, w_url = d.start_writer()
        port = w_address[1]
        w_client = d.client(w_address)
        d.submit_updates(w_client, updates)
        _, r_address, r_url = d.start_replica(w_address)
        r_client = d.client(r_address)
        d.await_converged(w_client, r_client)

        def replica_resources() -> Tuple[float, float]:
            scraped = scrape_metrics(r_url + "/metrics")
            return (
                metric_value(scraped, "process_open_fds") or -1.0,
                metric_value(scraped, "process_resident_memory_bytes") or -1.0,
            )

        fds_before, rss_before = replica_resources()
        ready_times: List[float] = []
        for cycle in range(cycles):
            d.submit_updates(w_client, updates)
            d.await_converged(w_client, r_client)
            d.check_oracle(r_client, f"cycle-{cycle}-pre-kill")

            writer.kill()  # SIGKILL: no drain, no cleanup — the hard case
            writer.wait_exit()
            d.await_readyz(r_url, 503)

            restart_at = time.monotonic()
            writer, w_address, w_url = d.start_writer(port=port)
            ready_times.append(time.monotonic() - restart_at + d.await_readyz(w_url, 200))
            w_client.close()
            w_client = d.client(w_address)
            d.resolve_in_flight(w_client)
            ready_times.append(d.await_readyz(r_url, 200))
            d.await_converged(w_client, r_client)

        d.check_oracle(r_client, "final-replica")
        d.check_oracle(w_client, "final-writer")
        problems = diff_stores(d.store_path, d.mirror_path)
        d.check(
            not problems,
            "correctness[restart]: mirror differs after restart cycles: "
            + "; ".join(problems[:5]),
        )

        # The long-lived replica must not leak across its peer's crash loop.
        fds_after, rss_after = replica_resources()
        if fds_before > 0 and fds_after > 0:
            d.check(
                fds_after - fds_before <= FD_GROWTH_LIMIT,
                f"observability[restart]: replica leaked fds "
                f"({fds_before:.0f} -> {fds_after:.0f})",
            )
        if rss_before > 0 and rss_after > 0:
            d.check(
                rss_after - rss_before <= RSS_GROWTH_LIMIT_BYTES,
                f"observability[restart]: replica RSS grew "
                f"{rss_after - rss_before:.0f} bytes across {cycles} cycles",
            )
        worst_ready = max(ready_times)
        d.check(
            worst_ready <= TIME_TO_READY_SLO_S,
            f"freshness: worst time-to-ready {worst_ready:.1f}s "
            f"(SLO {TIME_TO_READY_SLO_S:.0f}s)",
        )

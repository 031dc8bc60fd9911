"""The processes, stores and inputs one benchmark run stands up and reaps.

:class:`Topology` owns everything with a lifetime: a temp directory under
``--workdir`` (removed on exit), every ``repro serve`` / pipeline child it
spawned (terminated, then killed, then waited for — on every exit path),
and the clients connected to them.  Ports are always ephemeral
(``--listen 127.0.0.1:0``; the server's ``listening`` line names the port).

:class:`UpdateModel` is the harness's copy of the hypergraph the server
should be serving: seeded member draws for adds, oldest-first removes, and
the edge lists to rebuild the oracle's input from.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.harness import ManagedProcess, harness_env
from repro.generators.datasets import load_dataset
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.hypergraph import Hypergraph
from repro.service.transport import ServiceClient
from repro.store import IndexStore

import e2e_spec as spec

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_LAUNCHER = os.path.join(HERE, "traced_serve.py")
COLD_CHILD = os.path.join(HERE, "cold_child.py")
#: Seconds to wait for a child's announcement line or exit.
SPAWN_TIMEOUT_S = 60.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process in MB (0.0 when /proc has no answer)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class Server:
    """One spawned ``repro serve`` and the address it announced."""

    def __init__(
        self,
        process: ManagedProcess,
        store_path: str,
        host: str,
        port: int,
        spans_path: Optional[str],
    ):
        self.process = process
        self.store_path = store_path
        self.host = host
        self.port = port
        self.spans_path = spans_path

    @property
    def pid(self) -> int:
        return self.process.proc.pid

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)


class Topology:
    """Context manager that reaps every child and removes the work directory."""

    def __init__(self, workdir: Optional[str] = None) -> None:
        base = workdir or os.path.join(HERE, ".work")
        os.makedirs(base, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=base)
        self._processes: List[ManagedProcess] = []
        self._clients: List[ServiceClient] = []
        self._counter = 0

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for client in self._clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown must reach the children
                pass
        self._clients.clear()
        for process in self._processes:
            try:
                process.close(timeout=10.0)
            except Exception:  # noqa: BLE001 - keep reaping the rest
                process.kill()
        self._processes.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def path(self, label: str) -> str:
        """A fresh path under the work directory."""
        self._counter += 1
        return os.path.join(self.root, f"{label}-{self._counter}")

    # -- processes ------------------------------------------------------ #
    def spawn_server(
        self, store_path: str, extra_args: Sequence[str] = (), traced: bool = False
    ) -> Server:
        """Start ``repro serve --listen 127.0.0.1:0`` on ``store_path``."""
        serve_args = [
            "serve", "--path", store_path, "--listen", "127.0.0.1:0", *extra_args,
        ]  # fmt: skip
        spans_path = None
        if traced:
            spans_path = self.path("spans") + ".json"
            argv = [sys.executable, TRACED_LAUNCHER, "--spans-out", spans_path, *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", *serve_args]
        process = ManagedProcess(argv, env=harness_env(), name="serve")
        self._processes.append(process)
        listening = process.expect("listening", timeout=SPAWN_TIMEOUT_S)
        return Server(
            process, store_path, str(listening["host"]), int(listening["port"]), spans_path
        )

    def spawn_cold_child(self, hypergraph_npz: str, store_path: str) -> ManagedProcess:
        """Start the pipeline + build child of one ``cold_build`` cycle."""
        argv = [sys.executable, COLD_CHILD, hypergraph_npz, store_path]
        process = ManagedProcess(argv, env=harness_env(), name="cold-child")
        self._processes.append(process)
        process.expect("ready", timeout=SPAWN_TIMEOUT_S)
        return process

    def stop(self, process: ManagedProcess) -> None:
        """Terminate one child now and wait until it has ended."""
        process.close(timeout=10.0)
        if process in self._processes:
            self._processes.remove(process)

    def client(self, server: Server, **kwargs) -> ServiceClient:
        """A connected client; every call times out after ``OP_TIMEOUT_S``."""
        kwargs.setdefault("timeout", spec.OP_TIMEOUT_S)
        client = ServiceClient(server.host, server.port, **kwargs).connect()
        self._clients.append(client)
        return client


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def generate(scale: float, seed: int) -> Tuple[Hypergraph, float]:
    """``(dataset, seconds it took to generate)``."""
    start = time.perf_counter()
    h = load_dataset(spec.DATASET, scale=scale, seed=seed)
    return h, time.perf_counter() - start


def build_store(h: Hypergraph, path: str) -> float:
    """``IndexStore.build`` into ``path``; returns its wall seconds."""
    start = time.perf_counter()
    IndexStore.build(h, path, num_shards=spec.NUM_SHARDS)
    return time.perf_counter() - start


class UpdateModel:
    """The hypergraph the server should hold, tracked from the harness side."""

    def __init__(self, h: Hypergraph, seed: int) -> None:
        self.num_vertices = h.num_vertices
        self.edges: List[List[int]] = [members.tolist() for _, members in h.iter_edges()]
        self._rng = np.random.default_rng([seed, 0xE2E])
        self._added: List[int] = []  # bench-added edge ids, oldest first

    def draw_members(self) -> List[int]:
        """Member set of the next add: distinct existing vertices."""
        drawn = self._rng.choice(self.num_vertices, size=spec.UPDATE_MEMBERS, replace=False)
        return sorted(drawn.tolist())

    def applied_adds(self, acked: Sequence[Tuple[int, Iterable[int]]]) -> bool:
        """Record acked adds as ``(edge id, members)``; False when the ids are
        not the next consecutive ones (a lost, repeated or phantom add).

        A batch frame fans its adds over worker threads, so ids arrive in
        any order within the frame; only the set is determined.
        """
        ordered = sorted(
            (int(edge_id), sorted(int(v) for v in members)) for edge_id, members in acked
        )
        first = len(self.edges)
        for _, members in ordered:
            self._added.append(len(self.edges))
            self.edges.append(members)
        return [edge_id for edge_id, _ in ordered] == list(range(first, first + len(ordered)))

    def oldest_added(self) -> Optional[int]:
        return self._added[0] if self._added else None

    def applied_remove(self, edge_id: int) -> None:
        self._added.remove(edge_id)
        self.edges[edge_id] = []

    def hypergraph(self) -> Hypergraph:
        return hypergraph_from_edge_lists(self.edges, num_vertices=self.num_vertices)


def copy_store(src: str, dst: str) -> str:
    """A private copy of a store directory (minus the writer's lock file)."""
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("writer.lock"))
    return dst


def environment_stamp() -> Dict[str, object]:
    """Where these numbers were measured (goes into saved results)."""
    import platform
    import subprocess

    import numpy
    import scipy

    def quiet(argv: List[str]) -> str:
        try:
            return subprocess.run(
                argv, capture_output=True, text=True, timeout=10, check=False, cwd=HERE
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "filesystem": quiet(["stat", "-f", "-c", "%T", HERE]),
        "git_commit": quiet(["git", "rev-parse", "HEAD"]),
    }

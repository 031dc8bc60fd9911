"""Shared scaffold of the multiprocess serving acceptance tests.

Remote reader clients run in spawned OS processes.  Each phase, the test
computes the :class:`repro.core.pipeline.SLinePipeline` oracle on the
writer's current hypergraph, and every reader must serve it byte for byte
(JSON text), plus the writer's own sweep.
"""

import contextlib
import json
import multiprocessing as mp

from repro.chaos.harness import oracle_values_json, wait_until
from repro.core.pipeline import SLinePipeline
from repro.service import ServiceClient

NUM_READERS = 2


def reader_process(address, phases, results):
    """Remote client: each phase, serve queries and report the raw JSON."""
    host, port = address
    with ServiceClient(host, port) as client:
        while True:
            phase = phases.get()
            if phase is None:
                return
            answers = {}
            for s, metric in [(2, "pagerank"), (1, "connected_components")]:
                response = client.request({"op": "metric", "s": s, "metric": metric})
                answers[f"{metric}/{s}"] = json.dumps(response["values"], sort_keys=True)
            answers["components/2"] = client.components(2)
            answers["sweep/1..3"] = client.sweep(s_min=1, s_max=3)["edge_counts"]
            results.put((phase, answers, client.generation()))


def await_convergence(monitor, fingerprint):
    wait_until(
        lambda: monitor.fingerprint() == fingerprint,
        description="the replica to catch up",
    )


@contextlib.contextmanager
def reader_fleet(address):
    """Start :data:`NUM_READERS` reader processes against ``address``.

    Yields ``run_phase(name, writer)``: it releases every reader into one
    phase, asserts each answered the oracle, and returns the generation
    they were served.  The readers are stopped on exit.
    """
    ctx = mp.get_context("spawn")
    phases = [ctx.Queue() for _ in range(NUM_READERS)]
    results = ctx.Queue()
    readers = [
        ctx.Process(target=reader_process, args=(address, queue, results))
        for queue in phases
    ]
    for reader in readers:
        reader.start()

    def run_phase(name, writer):
        h = writer.engine.hypergraph
        expected = {
            "pagerank/2": oracle_values_json(h, 2, "pagerank"),
            "connected_components/1": oracle_values_json(h, 1, "connected_components"),
            "components/2": SLinePipeline(
                metrics=("connected_components",)
            ).run(h, 2).num_components(),
            "sweep/1..3": writer.sweep(range(1, 4)).edge_counts,
        }
        for queue in phases:
            queue.put(name)
        for _ in readers:
            phase, answers, generation = results.get(timeout=120)
            assert phase == name
            assert answers == expected, f"reader diverged in phase {name}"
        return generation

    try:
        yield run_phase
    finally:
        for queue in phases:
            queue.put(None)
        for reader in readers:
            reader.join(timeout=30)
            if reader.is_alive():  # pragma: no cover - cleanup on failure
                reader.terminate()

"""A miss after an update: recompute vs. carry the cached entry forward.

The probe behind ROADMAP's "A miss proportional to the update" item and the
measurement ``repro.engine.engine._MAX_PENDING`` cites.  On the served
fixture of ``benchmarks/e2e`` (livejournal surrogate x2, seed 1, 4 shards)
it drives ``churn_query``'s own update stream — adds of 3 distinct random
members, every 4th update a remove of the oldest added hyperedge — through
two engines and, after each update, asks each at s = 1..3 for what it holds:

* a :class:`~repro.store.PersistentQueryEngine` for the **metric** miss —
  the squeezed CSR and the connected-component labels, which is all the
  wire's ``metric`` op needs (the engine drops a line graph whose squeezed
  form is cached rather than hold both behind);
* a :class:`QueryEngine` over a second handle on the same shards that is
  only ever asked for line graphs, for the **line_graph** miss.

Each miss is measured twice: **delta** — the entry is one update behind
the journal and :mod:`repro.engine.delta` brings it forward — and
**recompute** — a cold-cache engine over the same hypergraph and index:
slice, canonical order, squeeze, coo→csr, ``csgraph``; what every such miss
cost before.  Asserted at every step: each carried kind is byte-equal
(values, dtype, shape) to the recomputed one, and connected components are
re-run only when the squeeze shifted — never for a remove or an add that
left it in place.  Printed, not gated: the seconds, the new-row sizes and
how often the squeeze shifted — and, for ``_MAX_PENDING``, what a metric
miss costs k = 1..6 adds behind.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine import engine as engine_module
from repro.engine.engine import QueryEngine
from repro.generators.datasets import load_dataset
from repro.store import IndexStore, PersistentQueryEngine

CC = "connected_components"
S_VALUES = (1, 2, 3)
UPDATE_MEMBERS = 3
NUM_SHARDS = 4
SEED = 1

#: Quick mode (REPRO_BENCH_QUICK=1, the CI paper-benches job): a quarter of
#: the served fixture and a short stream — exactness, not timings.
BENCH_QUICK = quick_mode()
BENCH_SCALE = 0.5 if BENCH_QUICK else 2.0
UPDATES = 16 if BENCH_QUICK else 80


class Served:
    """The two serving engines, kept in step, and the update stream."""

    def __init__(self, path) -> None:
        h = load_dataset("livejournal", scale=BENCH_SCALE, seed=SEED)
        self.metrics = PersistentQueryEngine.build(h, path, num_shards=NUM_SHARDS)
        self.lines = QueryEngine(
            h, index=IndexStore.open(path, read_only=True).sharded_index()
        )
        self._rng = np.random.default_rng([SEED, 0xE2E])
        self._added = []

    def warm(self) -> None:
        for s in S_VALUES:
            self.metrics.metric(s, CC)
            self.lines.line_graph(s)

    def update(self, remove: bool):
        """One update on both engines; returns its journal entry."""
        if remove and self._added:
            victim = self._added.pop(0)
            for engine in (self.metrics, self.lines):
                engine.remove_hyperedge(victim)
        else:
            members = self._rng.choice(
                self.metrics.hypergraph.num_vertices, size=UPDATE_MEMBERS, replace=False
            )
            for engine in (self.metrics, self.lines):
                new_id = engine.add_hyperedge(sorted(members.tolist()))
            self._added.append(new_id)
        return self.metrics._journal[-1]

    def close(self) -> None:
        self.metrics.close()
        self.lines.index.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    fixture = Served(tmp_path_factory.mktemp("delta-miss") / "store")
    yield fixture
    fixture.close()


def _timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return result, (time.perf_counter() - start) * 1000.0


def _line_graph_miss(engine, s):
    """``(arrays, scalars, ms)`` of one ``line_graph`` miss."""
    graph, ms = _timed(engine.line_graph, s)
    return (graph.edges, graph.weights, graph.active_vertices), (graph.num_hyperedges,), ms


def _metric_miss(engine, s):
    """``(arrays, scalars, ms)`` of one ``metric`` miss: squeezed CSR + labels."""
    (graph, mapping), squeezed_ms = _timed(engine.squeezed_graph, s)
    labels, labels_ms = _timed(engine.metric, s, CC)
    arrays = (graph.indptr, graph.indices, mapping.new_to_old, labels)
    return arrays, (graph.num_vertices, graph.metadata["s"]), squeezed_ms + labels_ms


def _recomputed(miss, engine, s):
    """The same miss on a cold cache over the same hypergraph and index."""
    return miss(QueryEngine(engine.hypergraph, index=engine.index), s)


def _assert_same_bytes(carried, recomputed, where):
    assert carried[1] == recomputed[1], where
    for array, reference in zip(carried[0], recomputed[0]):
        assert array.dtype == reference.dtype, where
        assert array.shape == reference.shape, where
        assert array.tobytes() == reference.tobytes(), where


def test_delta_miss_equals_recompute_on_the_churn_stream(served, report):
    served.warm()
    times = defaultdict(lambda: {"delta": [], "recompute": []})
    row_sizes = defaultdict(list)
    shifted = defaultdict(int)
    for step in range(UPDATES):
        op = "remove" if step % 4 == 3 else "add"
        update = served.update(remove=op == "remove")
        for s in S_VALUES:
            row_sizes[op, s].append(int(update.row(s)[0].size))
            for kind, miss, engine, entries in (
                ("line_graph", _line_graph_miss, served.lines, 1),
                ("metric", _metric_miss, served.metrics, 2),
            ):
                before = engine.stats()
                carried = miss(engine, s)
                recomputed = _recomputed(miss, engine, s)
                _assert_same_bytes(carried, recomputed, (step, op, s, kind))
                after = engine.stats()
                brought_forward = after.patched_entries - before.patched_entries
                fell_back = after.delta_fallbacks - before.delta_fallbacks
                # Every entry asked for was exactly one update behind.
                assert brought_forward + fell_back == entries, (step, s, kind)
                times[kind, op, s]["delta"].append(carried[2])
                times[kind, op, s]["recompute"].append(recomputed[2])
                if kind == "metric" and fell_back:
                    # The labels are re-run only behind a rebuilt squeeze.
                    assert fell_back == 2, (step, op, s, "CC re-run, squeeze in place")
                    shifted[op, s] += 1

    rows = []
    for (kind, op, s), samples in sorted(times.items()):
        delta_ms = statistics.median(samples["delta"])
        recompute_ms = statistics.median(samples["recompute"])
        sizes = row_sizes[op, s]
        rows.append(
            [
                kind,
                op,
                s,
                len(sizes),
                f"{recompute_ms:.2f}",
                f"{delta_ms:.2f}",
                f"{delta_ms / recompute_ms:.2f}",
                f"{statistics.median(sizes):.0f} / {max(sizes)}",
                shifted[op, s] if kind == "metric" else "",
            ]
        )
    report(
        f"Miss one update behind (livejournal surrogate x{BENCH_SCALE}, seed {SEED}, "
        f"{NUM_SHARDS} shards, {UPDATES} updates of {UPDATE_MEMBERS} members, "
        "every 4th a remove; medians, ms)\n"
        + format_table(
            [
                "miss",
                "op",
                "s",
                "n",
                "recompute",
                "delta",
                "delta/recompute",
                "row median / max",
                "squeeze shifted",
            ],
            rows,
        ),
        name="delta_miss",
    )


def test_metric_miss_cost_by_updates_behind(served, report):
    """What ``_MAX_PENDING`` bounds: an s = 1 metric miss k adds behind."""
    rounds = 2 if BENCH_QUICK else 5
    rows = []
    for behind in range(1, 7):
        samples = []
        for _ in range(rounds):
            _metric_miss(served.metrics, 1)  # current; the adds below leave it behind
            for _ in range(behind):
                served.update(remove=False)
            carried = _metric_miss(served.metrics, 1)
            recomputed = _recomputed(_metric_miss, served.metrics, 1)
            _assert_same_bytes(carried, recomputed, behind)
            samples.append((carried[2], recomputed[2]))
        rows.append(
            [
                behind,
                "carried" if behind <= engine_module._MAX_PENDING else "dropped",
                f"{statistics.median(sample[0] for sample in samples):.2f}",
                f"{statistics.median(sample[1] for sample in samples):.2f}",
            ]
        )
    report(
        f"s = 1 metric miss k adds behind (_MAX_PENDING = {engine_module._MAX_PENDING}; "
        "medians, ms)\n" + format_table(["k", "entry", "miss", "recompute"], rows),
        name="delta_miss_pending",
    )

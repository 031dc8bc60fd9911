"""A miss after an update: recompute vs. carry the cached entry forward.

The probe behind ROADMAP's "A miss proportional to the update" item and the
measurement ``repro.engine.engine._MAX_PENDING`` cites.  On the served
fixture of ``benchmarks/e2e`` (livejournal surrogate x2, seed 1, 4 shards)
it drives ``churn_query``'s own update stream — adds of 3 distinct random
members, every 4th update a remove of the oldest added hyperedge — through
a :class:`~repro.store.PersistentQueryEngine` and, after each update, asks
it at s = 1..3 for the **metric** miss — ``metric_columns(s,
"connected_components")``, the squeezed IDs and their labels, which is all
the wire's ``metric`` op needs; the labels are carried from the update's
row, and the squeezed CSR a remove's split search reads is spliced only
once it trails by ``_RESPLICE`` updates.  (A line graph is not carried:
the engine recomputes ``L_s`` from the index, so it has no miss to time
here.)

Each miss is measured twice: **delta** — the entry is one update behind
the journal and :mod:`repro.engine.delta` brings it forward — and
**recompute** — a cold-cache engine over the same hypergraph and index:
slice, canonical order, squeeze, Stage 4 CSR, ``csgraph``; what every
such miss cost before.  Asserted at every step: the carried columns are
byte-equal (values, dtype, shape) to the recomputed ones, so is every
squeezed CSR a components miss splices forward (indptr, indices,
``new_to_old``, read-only), and connected components never fall back — a
shifted squeeze included.  Printed, not gated: the seconds, the new-row
sizes, how often a squeezed CSR was spliced per update, and — for
``_MAX_PENDING`` — what a metric miss costs k adds behind, up to two past
the bound.  Last, a replay of ``churn_query``'s
cycle through public engine calls alone (so the same file times an older
``src/``): the ms a cycle spends in its components queries, and its p50.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine import delta, engine as engine_module
from repro.engine.engine import QueryEngine
from repro.generators.datasets import load_dataset
from repro.store import PersistentQueryEngine

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
    """The serving engine and the update stream."""

    def __init__(self, path) -> None:
        h = load_dataset("livejournal", scale=BENCH_SCALE, seed=SEED)
        self.metrics = PersistentQueryEngine.build(h, path, num_shards=NUM_SHARDS)
        self._rng = np.random.default_rng([SEED, 0xE2E])
        self._added = []

    def warm(self) -> None:
        for s in S_VALUES:
            self.metrics.metric(s, CC)

    def update(self, remove: bool):
        """One update; returns its journal entry."""
        if remove and self._added:
            self.metrics.remove_hyperedge(self._added.pop(0))
        else:
            members = self._rng.choice(
                self.metrics.hypergraph.num_vertices, size=UPDATE_MEMBERS, replace=False
            )
            self._added.append(self.metrics.add_hyperedge(sorted(members.tolist())))
        return self.metrics._journal[-1]

    def close(self) -> None:
        self.metrics.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    fixture = Served(tmp_path_factory.mktemp("delta-miss") / "store")
    yield fixture
    fixture.close()


def _timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return result, (time.perf_counter() - start) * 1000.0


def _metric_miss(engine, s):
    """``(arrays, scalars, ms)`` of one ``metric`` miss: the wire's columns."""
    (ids, labels), ms = _timed(engine.metric_columns, s, CC)
    return (ids, labels), (), ms


def _squeezed(value):
    """``(arrays, scalars)`` of a squeezed entry: the Stage 4 CSR + mapping."""
    graph, mapping = value
    return (
        (graph.indptr, graph.indices, mapping.new_to_old),
        (graph.num_vertices, graph.metadata["s"]),
    )


def _assert_spliced_csr_is_fresh(engine, s, where):
    """The squeezed CSR a components miss just spliced forward (or rebuilt,
    if the splice declined) is cached at the current fingerprint, read-only
    and byte-equal to a cold Stage 4 over the same hypergraph and index."""
    cached = engine._cache.peek(engine._key(s, "squeezed"))
    assert cached is not None, (where, "no squeezed CSR at the current fingerprint")
    carried = _squeezed(cached)
    fresh = QueryEngine(engine.hypergraph, index=engine.index).squeezed_graph(s)
    _assert_same_bytes(carried, _squeezed(fresh), (where, "squeezed"))
    for array in carried[0]:
        assert not array.flags.writeable, (where, "squeezed")


class Splices:
    """Counts the squeezed CSR splices (``delta.squeezed`` calls), and how
    many of them declined (a shifted squeeze: Stage 4 rebuilt)."""

    def __init__(self, monkeypatch) -> None:
        self.calls = self.declined = 0
        splice = delta.squeezed

        def counting(*args):
            result = splice(*args)
            self.calls += 1
            self.declined += result is None
            return result

        monkeypatch.setattr(delta, "squeezed", counting)


def _recomputed(miss, engine, s):
    """The same miss on a cold cache over the same hypergraph and index."""
    return miss(QueryEngine(engine.hypergraph, index=engine.index), s)


def _assert_same_bytes(carried, recomputed, where):
    assert carried[1] == recomputed[1], where
    for array, reference in zip(carried[0], recomputed[0]):
        assert array.dtype == reference.dtype, where
        assert array.shape == reference.shape, where
        assert array.tobytes() == reference.tobytes(), where


def test_delta_miss_equals_recompute_on_the_churn_stream(served, report, monkeypatch):
    served.warm()
    times = defaultdict(lambda: {"delta": [], "recompute": []})
    row_sizes = defaultdict(list)
    shifted = defaultdict(int)
    splices = Splices(monkeypatch)
    spliced = defaultdict(int)
    for step in range(UPDATES):
        op = "remove" if step % 4 == 3 else "add"
        update = served.update(remove=op == "remove")
        for s in S_VALUES:
            row_sizes[op, s].append(int(update.row(s)[0].size))
            engine = served.metrics
            before = engine.stats()
            calls, declined = splices.calls, splices.declined
            carried = _metric_miss(engine, s)
            after = engine.stats()
            calls, declined = splices.calls - calls, splices.declined - declined
            recomputed = _recomputed(_metric_miss, engine, s)
            _assert_same_bytes(carried, recomputed, (step, op, s))
            if calls:
                _assert_spliced_csr_is_fresh(engine, s, (step, op, s))
            brought_forward = after.patched_entries - before.patched_entries
            fell_back = after.delta_fallbacks - before.delta_fallbacks
            # The entry asked for was exactly one update behind, and is
            # carried; a components miss may also splice the squeezed CSR
            # its searches read, which may decline (Stage 4 rebuilt).
            assert fell_back == declined, (step, op, s, "CC fell back")
            assert brought_forward + fell_back == 1 + calls, (step, op, s)
            times[op, s]["delta"].append(carried[2])
            times[op, s]["recompute"].append(recomputed[2])
            spliced[op, s] += calls
            shifted[op, s] += declined

    # The re-splices above were each byte-checked; the stream is long enough
    # to make at least one at every s.
    checked = {s: spliced["add", s] + spliced["remove", s] for s in S_VALUES}
    assert all(checked.values()), checked
    rows = []
    for (op, s), samples in sorted(times.items()):
        delta_ms = statistics.median(samples["delta"])
        recompute_ms = statistics.median(samples["recompute"])
        sizes = row_sizes[op, s]
        rows.append(
            [
                op,
                s,
                len(sizes),
                f"{recompute_ms:.2f}",
                f"{delta_ms:.2f}",
                f"{delta_ms / recompute_ms:.2f}",
                f"{statistics.median(sizes):.0f} / {max(sizes)}",
                f"{spliced[op, s] / len(sizes):.2f}",
                shifted[op, s],
            ]
        )
    report(
        f"Metric miss one update behind (livejournal surrogate x{BENCH_SCALE}, seed {SEED}, "
        f"{NUM_SHARDS} shards, {UPDATES} updates of {UPDATE_MEMBERS} members, "
        "every 4th a remove; medians, ms)\n"
        + format_table(
            [
                "op",
                "s",
                "n",
                "recompute",
                "delta",
                "delta/recompute",
                "row median / max",
                "splices / update",
                "squeeze shifted",
            ],
            rows,
        ),
        name="delta_miss",
    )


def test_metric_miss_cost_by_updates_behind(served, report, monkeypatch):
    """What ``_MAX_PENDING`` bounds: an s = 1 metric miss k adds behind.

    The squeezed CSR is never asked for here, so it trails as it does
    under ``churn_query``: a miss k behind also pays a splice once the CSR
    trails by ``_RESPLICE`` (byte-checked), and past the bound the entry is
    dropped."""
    rounds = 2 if BENCH_QUICK else 5
    bound = engine_module._MAX_PENDING
    splices = Splices(monkeypatch)
    rows = []
    for behind in sorted({1, 2, 4, 8, bound // 2, bound - 1, bound, bound + 1, bound + 2}):
        samples = []
        for _ in range(rounds):
            _metric_miss(served.metrics, 1)  # current; the adds below leave it behind
            for _ in range(behind):
                served.update(remove=False)
            calls = splices.calls
            carried = _metric_miss(served.metrics, 1)
            recomputed = _recomputed(_metric_miss, served.metrics, 1)
            _assert_same_bytes(carried, recomputed, behind)
            if splices.calls > calls:
                _assert_spliced_csr_is_fresh(served.metrics, 1, behind)
            samples.append((carried[2], recomputed[2]))
        rows.append(
            [
                behind,
                "carried" if behind <= bound else "dropped",
                f"{statistics.median(sample[0] for sample in samples):.2f}",
                f"{statistics.median(sample[1] for sample in samples):.2f}",
            ]
        )
    report(
        f"s = 1 metric miss k adds behind (_MAX_PENDING = {bound}; medians, ms)\n"
        + format_table(["k", "entry", "miss", "recompute"], rows),
        name="delta_miss_pending",
    )


def test_churn_query_cycle_replay(tmp_path, report):
    """``churn_query``'s cycle in process: 6 x (an update, then
    ``metric_columns`` at s = 1 + i % 3), then one components sweep of
    s = 1..8.  Public engine calls only, so an older ``src/`` runs it too.
    Printed: the ms per cycle spent in the components queries (the carry
    path), and the cycle p50, updates and WAL included."""
    cycles = 20 if BENCH_QUICK else 200
    h = load_dataset("livejournal", scale=BENCH_SCALE, seed=SEED)
    engine = PersistentQueryEngine.build(h, tmp_path / "store", num_shards=NUM_SHARDS)
    try:
        engine.sweep(range(1, 9), metrics=[CC])  # warm: every later miss is earned
        rng = np.random.default_rng([SEED, 0xE2E])
        added = []
        step = 0
        cycle_ms, query_ms = [], []
        for _ in range(cycles):
            start = time.perf_counter()
            queries = 0.0
            for _ in range(6):
                if step % 4 == 3 and added:
                    engine.remove_hyperedge(added.pop(0))
                else:
                    members = rng.choice(h.num_vertices, size=UPDATE_MEMBERS, replace=False)
                    added.append(engine.add_hyperedge(sorted(members.tolist())))
                _, ms = _timed(engine.metric_columns, S_VALUES[step % 3], CC)
                queries += ms
                step += 1
            _, ms = _timed(engine.sweep, range(1, 9), [CC])
            query_ms.append(queries + ms)
            cycle_ms.append((time.perf_counter() - start) * 1000.0)
    finally:
        engine.close()
    report(
        f"churn_query cycle replay (livejournal surrogate x{BENCH_SCALE}, seed {SEED}, "
        f"{NUM_SHARDS} shards, {cycles} cycles): components queries "
        f"{statistics.mean(query_ms):.2f} ms/cycle (p50 {statistics.median(query_ms):.2f}), "
        f"cycle p50 {statistics.median(cycle_ms):.2f} ms",
        name="delta_miss_replay",
    )

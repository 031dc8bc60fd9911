"""An acked update costs its members, not the hypergraph.

The probe behind ROADMAP's "An update costs its members" item.  On the
served shape — a :class:`QueryEngine` over a store's
:class:`~repro.store.ShardedIndex`, no WAL, as the e2e harness's
``engine.add_ms`` probe drives it — it times adds of 3 distinct random
members (plus the ``fingerprint()`` every WAL record and cache key reads),
then removes of the same hyperedges, at two scales of the livejournal
surrogate four times apart.

Asserted: the fingerprint carried through every update equals the one a
hypergraph built from the harness's own model computes from scratch, and
the large scale's add p50 is at most :data:`MAX_ADD_RATIO` times the small
one's.  An update that copied the CSRs or rehashed every incidence cost
3.7x for 4x the incidences; one that touches only its members costs the
same at both.  Printed: add and remove p50 per scale.

The index's own update cost must not grow with its overlay either: a
served writer that does not compact appends every add's overlap row to it
for as long as it runs.  :func:`test_update_cost_does_not_grow_with_the_overlay`
drives ``churn_query``'s stream — adds of 3 members, every 4th update a
remove of the oldest added hyperedge — straight into a store's
:class:`~repro.store.ShardedIndex` and gates the index add and remove p50
over the last :data:`CHURN_WINDOW` updates of a long stream against the
same window of a short one at :data:`MAX_OVERLAY_RATIO`.  An overlay that
is re-concatenated on every add and masked on every remove cost ~3x and
~11x at ~55k pairs against ~5k.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine.engine import QueryEngine
from repro.generators.datasets import load_dataset
from repro.engine.index import OverlapIndex, overlap_counts_for_members
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.overlay import OverlayHypergraph
from repro.store import IndexStore

UPDATE_MEMBERS = 3
NUM_SHARDS = 4
SEED = 1
#: Largest allowed large/small add p50 ratio (4x the incidences).
MAX_ADD_RATIO = 2.0

#: Quick mode (REPRO_BENCH_QUICK=1, the CI paper-benches job): x1 and x4
#: of the surrogate and a shorter stream; full mode: the served x2 and x8.
BENCH_QUICK = quick_mode()
SCALES = (1.0, 4.0) if BENCH_QUICK else (2.0, 8.0)
UPDATES = 30 if BENCH_QUICK else 60

#: Largest allowed long/short p50 ratio of an index add or remove.
MAX_OVERLAY_RATIO = 2.0
#: The churn stream on the served x2 fixture: the short stream's window
#: ends with ~5k overlay pairs, the long one's with ~50k.
CHURN_SCALE = 2.0
SHORT_STREAM, LONG_STREAM = 400, 3300
#: Updates (3 adds to 1 remove) each p50 is taken over.
CHURN_WINDOW = 200


def _served_updates(path, scale: float):
    """``(add p50 ms, remove p50 ms, incidences)`` at one scale, after
    checking the carried fingerprint against a from-scratch one."""
    h = load_dataset("livejournal", scale=scale, seed=SEED)
    IndexStore.build(h, path, num_shards=NUM_SHARDS)
    index = IndexStore.open(path, read_only=True).sharded_index()
    engine = QueryEngine(h, index=index)
    model = [members.tolist() for _, members in h.iter_edges()]
    rng = np.random.default_rng([SEED, 0xE2E])
    adds, removes, added = [], [], []
    for _ in range(UPDATES):
        members = sorted(
            rng.choice(h.num_vertices, size=UPDATE_MEMBERS, replace=False).tolist()
        )
        start = time.perf_counter()
        edge_id = engine.add_hyperedge(members)
        engine.fingerprint()
        adds.append(time.perf_counter() - start)
        added.append(edge_id)
        model.append(members)
    for edge_id in added[: UPDATES // 2]:
        start = time.perf_counter()
        engine.remove_hyperedge(edge_id)
        engine.fingerprint()
        removes.append(time.perf_counter() - start)
        model[edge_id] = []
    expected = hypergraph_from_edge_lists(model, num_vertices=h.num_vertices)
    assert engine.fingerprint() == expected.fingerprint()
    assert engine.hypergraph == expected
    index.close()
    return (
        statistics.median(adds) * 1000.0,
        statistics.median(removes) * 1000.0,
        h.num_incidences,
    )


def test_update_cost_does_not_grow_with_the_hypergraph(tmp_path, report):
    results = {
        scale: _served_updates(tmp_path / f"x{scale:g}", scale) for scale in SCALES
    }
    small, large = SCALES
    ratio = results[large][0] / results[small][0]
    rows = [
        [f"x{scale:g}", incidences, f"{add_ms:.3f}", f"{remove_ms:.3f}"]
        for scale, (add_ms, remove_ms, incidences) in results.items()
    ]
    report(
        f"Served-shape update p50 (livejournal surrogate, seed {SEED}, "
        f"{NUM_SHARDS} shards, {UPDATES} adds of {UPDATE_MEMBERS} members then "
        f"{UPDATES // 2} removes; ms; add ratio x{large:g}/x{small:g} = "
        f"{ratio:.2f}, bound {MAX_ADD_RATIO})\n"
        + format_table(["scale", "incidences", "add p50", "remove p50"], rows),
        name="update_scaling",
    )
    assert ratio <= MAX_ADD_RATIO, (
        f"add p50 grew {ratio:.2f}x from x{small:g} to x{large:g} "
        f"(bound {MAX_ADD_RATIO}x): an update is paying for the hypergraph"
    )


def _churn_stream(path):
    """Per-update ``(op, seconds)`` of the index's own add / remove calls on
    ``churn_query``'s stream, and the live overlay pairs after the short
    and the long stream; checks the grown index against a build of its
    hypergraph."""
    h = load_dataset("livejournal", scale=CHURN_SCALE, seed=SEED)
    IndexStore.build(h, path, num_shards=NUM_SHARDS)
    index = IndexStore.open(path, read_only=True).sharded_index()
    graph = OverlayHypergraph(h)
    rng = np.random.default_rng([SEED, 0xE2E])
    added, times, pairs = [], [], {}
    for step in range(LONG_STREAM):
        if step % 4 == 3:
            victim = added.pop(0)
            start = time.perf_counter()
            index.remove_hyperedge(victim)
            times.append(("remove", time.perf_counter() - start))
            graph.empty(victim)
        else:
            members = np.array(
                sorted(rng.choice(h.num_vertices, size=UPDATE_MEMBERS, replace=False)),
                dtype=np.int64,
            )
            row = overlap_counts_for_members(graph, members)
            new_id = graph.num_edges
            start = time.perf_counter()
            index.add_hyperedge(new_id, members.size, *row)
            times.append(("add", time.perf_counter() - start))
            graph.append(members)
            added.append(new_id)
        if step + 1 in (SHORT_STREAM, LONG_STREAM):
            # Only added hyperedges are removed: the base keeps every pair.
            pairs[step + 1] = index.num_pairs - index.manifest.num_pairs
    rebuilt = OverlapIndex.build(graph.materialise())
    assert index.num_pairs == rebuilt.num_pairs
    assert index.s_profile() == rebuilt.s_profile()
    index.close()
    return times, pairs


def _p50_ms(times, stop, op):
    window = times[stop - CHURN_WINDOW : stop]
    return statistics.median(t for kind, t in window if kind == op) * 1000.0


def test_update_cost_does_not_grow_with_the_overlay(tmp_path, report):
    times, pairs = _churn_stream(tmp_path / "churn")
    rows, ratios = [], {}
    for op in ("add", "remove"):
        short, long = (_p50_ms(times, stop, op) for stop in (SHORT_STREAM, LONG_STREAM))
        ratios[op] = long / short
        rows.append([op, f"{short:.3f}", f"{long:.3f}", f"{ratios[op]:.2f}"])
    report(
        f"Index update p50 against overlay size (livejournal surrogate "
        f"x{CHURN_SCALE:g}, seed {SEED}, {NUM_SHARDS} shards; churn_query's "
        f"stream, last {CHURN_WINDOW} of {SHORT_STREAM} vs {LONG_STREAM} "
        f"updates; ~{pairs[SHORT_STREAM]} vs ~{pairs[LONG_STREAM]} overlay "
        f"pairs; ms; bound {MAX_OVERLAY_RATIO})\n"
        + format_table(["op", "short p50", "long p50", "long/short"], rows),
        name="update_overlay_scaling",
    )
    for op, ratio in ratios.items():
        assert ratio <= MAX_OVERLAY_RATIO, (
            f"index {op} p50 grew {ratio:.2f}x from {SHORT_STREAM} to "
            f"{LONG_STREAM} updates (bound {MAX_OVERLAY_RATIO}x): an update "
            "is paying for the overlay"
        )

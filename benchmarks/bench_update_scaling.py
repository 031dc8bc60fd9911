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
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.benchmarks import quick_mode
from repro.benchmarks.reporting import format_table
from repro.engine.engine import QueryEngine
from repro.generators.datasets import load_dataset
from repro.hypergraph.builders import hypergraph_from_edge_lists
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

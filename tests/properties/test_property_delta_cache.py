"""Delta-applied cache state == from-scratch state, byte for byte.

After an update the engine leaves the affected cache entries one step
behind its journal and, on the next miss, brings the ancestor forward with
the array kernels of :mod:`repro.engine.delta` instead of recomputing.  The
contract those kernels are held to here: whatever sequence of add / remove
/ query ran, every cached value under the current fingerprint equals what a
fresh ``QueryEngine(engine.hypergraph)`` computes from scratch — same
``tobytes()``, dtype, shape and C-contiguity — and is read-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.slinegraph import SLineGraph
from repro.engine import delta, engine as engine_module
from repro.engine.engine import QueryEngine
from repro.hypergraph.builders import hypergraph_from_edge_lists

CC = "connected_components"
S_RANGE = range(1, 6)


def arrays_of(value):
    """``name -> array`` (plus the scalars, as 0-d arrays) of one cache value."""
    if isinstance(value, SLineGraph):
        return {
            "edges": value.edges,
            "weights": value.weights,
            "active_vertices": value.active_vertices,
            "num_hyperedges": np.int64(value.num_hyperedges),
            "s": np.int64(value.s),
        }
    if isinstance(value, tuple):
        graph, mapping = value
        return {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "new_to_old": mapping.new_to_old,
            "num_vertices": np.int64(graph.num_vertices),
            "metadata_s": np.int64(graph.metadata["s"]),
        }
    if isinstance(value, delta.Components):
        # What is served; the state behind it is held by assert_same_state.
        return {"ids": value.ids, "labels": value.labels}
    return {"values": value}


def assert_same_state(carried, fresh, where):
    """A components entry's per-hyperedge label and s-degree equal a fresh
    entry's, IDs past a carried entry's arrays reading as outside ``L_s``."""
    size = fresh.label.size
    assert carried.label.size <= size, where
    for name, outside in (("label", -1), ("degree", 0)):
        array = getattr(carried, name)
        assert array.flags.writeable is False, (where, name)
        grown = np.full(size, outside, dtype=array.dtype)
        grown[: array.size] = array
        reference = getattr(fresh, name)
        assert grown.dtype == reference.dtype, (where, name)
        assert grown.tobytes() == reference.tobytes(), (where, name)


def assert_same_bytes(served, expected, where):
    served, expected = arrays_of(served), arrays_of(expected)
    assert served.keys() == expected.keys(), where
    for name, array in served.items():
        reference = expected[name]
        assert array.dtype == reference.dtype, (where, name)
        assert array.shape == reference.shape, (where, name)
        assert array.tobytes() == reference.tobytes(), (where, name)
        if array.ndim:
            assert array.flags.c_contiguous, (where, name)
            assert array.flags.writeable is False, (where, name)


def assert_cache_matches_fresh(engine):
    """Every cached value under the current fingerprint, against from-scratch."""
    fresh = QueryEngine(engine.hypergraph)
    current = engine.fingerprint()
    for key in engine._cache.keys():
        fingerprint, s, kind = key
        if fingerprint != current:
            continue  # an ancestor still waiting to be brought forward
        if kind == "line_graph":
            expected = fresh.line_graph(s)
        elif kind == "squeezed":
            expected = fresh.squeezed_graph(s)
        elif kind == CC:
            expected = fresh._metric(s, kind)
            assert_same_state(engine._cache.peek(key), expected, (s, kind))
        else:
            expected = fresh.metric(s, kind)
        assert_same_bytes(engine._cache.peek(key), expected, (s, kind))


def query_everything(engine, metrics=(CC,)):
    for s in S_RANGE:
        engine.line_graph(s)
        engine.squeezed_graph(s)
        for name in metrics:
            engine.metric(s, name)


def warmed_from(h, metrics=(CC,)):
    engine = QueryEngine(h)
    query_everything(engine, metrics)
    return engine


def warmed(edge_lists, num_vertices=None, metrics=(CC,)):
    return warmed_from(hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices), metrics)


def warmed_line_graphs(edge_lists, num_vertices=None):
    """An engine that holds line graphs only — nothing derived from them."""
    engine = QueryEngine(hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices))
    for s in S_RANGE:
        engine.line_graph(s)
    return engine


def settle_and_check(engine, metrics=(CC,)):
    query_everything(engine, metrics)
    assert_cache_matches_fresh(engine)
    return engine.stats()


# --------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------- #
@st.composite
def hypergraphs(draw):
    """Small hypergraphs with empty, duplicate and hub-vertex hyperedges."""
    num_vertices = draw(st.integers(min_value=2, max_value=10))
    member = st.one_of(
        st.just(0),  # vertex 0 is a hub: most hyperedges overlap through it
        st.integers(min_value=0, max_value=num_vertices - 1),
    )
    edge_lists = draw(st.lists(st.lists(member, max_size=5), min_size=1, max_size=9))
    if draw(st.booleans()):
        edge_lists.append(list(edge_lists[0]))  # a duplicate hyperedge
    return hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices)


s_values = st.integers(min_value=1, max_value=5)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(st.integers(0, 11), max_size=5)),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("line_graph"), s_values),
        st.tuples(st.just("squeezed"), s_values),
        st.tuples(st.just("metric"), s_values),
        st.tuples(st.just("pagerank"), s_values),
        st.tuples(st.just("sweep"), s_values),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(h=hypergraphs(), steps=steps, warm=st.booleans())
def test_delta_applied_state_equals_from_scratch_state(h, steps, warm):
    engine = QueryEngine(h)
    if warm:
        query_everything(engine, (CC, "pagerank"))
    for op, argument in steps:
        if op == "add":
            engine.add_hyperedge(argument)
        elif op == "remove":
            engine.remove_hyperedge(argument % engine.hypergraph.num_edges)
        elif op == "line_graph":
            engine.line_graph(argument)
        elif op == "squeezed":
            engine.squeezed_graph(argument)
        elif op == "metric":
            engine.metric(argument, CC)
        elif op == "pagerank":
            engine.metric(argument, "pagerank")
        else:
            engine.sweep(range(argument, 6), metrics=(CC,))
        assert_cache_matches_fresh(engine)
    settle_and_check(engine, (CC, "pagerank"))


@st.composite
def pair_hypergraphs(draw):
    """Hyperedges of two vertices: ``L_1`` is the line graph of a graph,
    sparse enough that removing one hyperedge often splits a component."""
    num_vertices = draw(st.integers(min_value=3, max_value=9))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda pair: pair[0] != pair[1])
    edge_lists = draw(st.lists(pairs.map(list), min_size=2, max_size=10))
    return hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices)


def apply_update(engine, op, argument):
    if op == "add":
        engine.add_hyperedge(argument)
    else:
        engine.remove_hyperedge(argument % engine.hypergraph.num_edges)


updates = st.one_of(
    st.tuples(st.just("add"), st.lists(st.integers(0, 9), max_size=4)),
    st.tuples(st.just("remove"), st.integers(0, 1000)),
)


@settings(max_examples=80, deadline=None)
@given(
    h=st.one_of(hypergraphs(), pair_hypergraphs()),
    window=st.lists(updates, min_size=1, max_size=engine_module._MAX_PENDING),
)
def test_a_whole_window_is_carried_in_one_pass(h, window):
    """Up to ``_MAX_PENDING`` mixed updates between two queries: each entry
    is brought across all of them at once, or declines and recomputes."""
    engine = warmed_from(h, (CC, "pagerank"))
    for op, argument in window:
        apply_update(engine, op, argument)
    stats = settle_and_check(engine, (CC, "pagerank"))
    assert stats.index_builds == 1


@settings(max_examples=40, deadline=None)
@given(
    h=st.one_of(hypergraphs(), pair_hypergraphs()),
    steps=st.lists(
        st.one_of(updates, st.tuples(st.just("sweep"), s_values)), min_size=1, max_size=10
    ),
)
def test_sweeps_interleaved_with_updates_answer_like_a_fresh_engine(h, steps):
    engine = QueryEngine(h)
    engine.sweep(S_RANGE, metrics=(CC,))
    for op, argument in steps:
        if op != "sweep":
            apply_update(engine, op, argument)
            continue
        served = engine.sweep(range(argument, 6), metrics=(CC,))
        fresh = QueryEngine(engine.hypergraph).sweep(range(argument, 6), metrics=(CC,))
        assert served.edge_counts == fresh.edge_counts
        assert served.active_counts == fresh.active_counts
        for s in served.s_values:
            assert_same_bytes(served.metrics[s][CC], fresh.metrics[s][CC], s)
        assert_cache_matches_fresh(engine)
    settle_and_check(engine)


@settings(max_examples=60, deadline=None)
@given(
    h=st.one_of(hypergraphs(), pair_hypergraphs()),
    steps=st.lists(
        st.one_of(updates, st.tuples(st.just("components"), s_values)),
        min_size=1,
        max_size=engine_module._MAX_PENDING + 4,
    ),
)
def test_components_carried_alone_then_stage_4_answer_like_a_fresh_engine(h, steps):
    """Only connected components are asked for across windows up to the
    journal's bound, so every carry searches a squeezed CSR left behind;
    then Stage 4 and a metric that reads it are asked for."""
    engine = warmed_from(h, (CC, "pagerank"))
    for op, argument in steps:
        if op == "components":
            engine.metric(argument, CC)
        else:
            apply_update(engine, op, argument)
        assert_cache_matches_fresh(engine)
    for s in S_RANGE:
        engine.squeezed_graph(s)
        assert_cache_matches_fresh(engine)
        engine.metric(s, "pagerank")
        assert_cache_matches_fresh(engine)


# --------------------------------------------------------------------- #
# One plain case per branch of the carry-forward
# --------------------------------------------------------------------- #
#: Two triangles' worth of overlap plus a hyperedge nobody overlaps (ID 4).
TWO_COMPONENTS = [[0, 1], [1, 2], [5, 6], [6, 7], [9, 10]]


def test_add_into_one_component_patches_the_squeezed_graph_and_the_labels():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([0, 2])  # overlaps hyperedges 0 and 1, both present at s = 1
    # L_1 and L_2 were dropped, not left behind: their squeezed forms are cached.
    assert sorted(kind for _, s, kind in engine._cache.keys() if s <= 2) == [
        CC, CC, "squeezed", "squeezed"
    ]
    stats = settle_and_check(engine)
    assert stats.invalidated_entries == 6 and stats.patched_entries == 4
    assert stats.delta_fallbacks == 0 and stats.index_builds == 1


def test_a_line_graph_is_recomputed_not_carried():
    engine = warmed_line_graphs(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([0, 2])
    engine.remove_hyperedge(2)
    # L_1 and L_2 were dropped by the add; L_3.. were re-keyed by both updates.
    assert sorted(s for _, s, _ in engine._cache.keys()) == [3, 4, 5]
    for s in S_RANGE:
        engine.line_graph(s)
    assert engine.line_graph(1).edge_set() == {(0, 1), (0, 5), (1, 5)}
    assert_cache_matches_fresh(engine)
    stats = engine.stats()
    assert stats.patched_entries == stats.delta_fallbacks == 0


def test_add_that_activates_an_isolated_hyperedge_shifts_the_squeeze():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([10, 11])  # hyperedge 4 gets its first neighbour
    stats = settle_and_check(engine)
    assert stats.delta_fallbacks == 1  # Stage 4 rebuilt at s = 1; CC is carried
    assert stats.patched_entries == 3  # CC at s = 1, and both entries at s = 2


def test_add_bridging_three_components_merges_their_labels():
    engine = warmed(
        [[0, 1], [1, 2], [4, 5], [5, 6], [8, 9], [9, 10], [12, 13], [13, 14]],
        num_vertices=16,
    )
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    engine.add_hyperedge([5, 9, 13])  # joins components 1, 2 and 3; 0 stays apart
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 1, 1, 1, 1, 1]
    assert settle_and_check(engine).delta_fallbacks == 0


def test_add_whose_row_is_empty_at_s_shares_the_arrays():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    before = engine.squeezed_graph(2), engine.metric(2, CC)
    engine.add_hyperedge([0, 5, 11])  # two overlaps of one vertex: nothing at s = 2
    after = engine.squeezed_graph(2), engine.metric(2, CC)
    assert after[0][0] is before[0][0] and after[1] is before[1]
    assert settle_and_check(engine).delta_fallbacks == 0


def test_unrelated_update_keeps_an_expensive_metric():
    engine = warmed(TWO_COMPONENTS, num_vertices=12, metrics=(CC, "pagerank"))
    ranks = engine.metric(2, "pagerank")
    engine.add_hyperedge([0, 5, 11])  # row empty at s = 2: pagerank carried
    assert engine.metric(2, "pagerank") is ranks
    engine.add_hyperedge([0, 1, 2])  # row reaches s = 2: pagerank recomputed
    assert engine.metric(2, "pagerank") is not ranks
    settle_and_check(engine, (CC, "pagerank"))


def test_empty_member_add():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([])
    assert settle_and_check(engine).delta_fallbacks == 0


def test_remove_of_a_components_smallest_vertex_reranks_the_labels():
    engine = warmed([[0, 1], [1, 2], [2, 3], [5, 6], [6, 7]], num_vertices=8)
    assert engine.metric(1, CC).tolist() == [0, 0, 0, 1, 1]
    engine.remove_hyperedge(0)  # hyperedge 1 keeps hyperedge 2: nobody is isolated
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1]
    stats = settle_and_check(engine)
    assert stats.patched_entries > 0 and stats.delta_fallbacks == 0  # labels carried


#: A path in L_1: hyperedge i overlaps i - 1 and i + 1.
PATH = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]
#: Hyperedge 2 is a hub whose removal leaves three chains (3-4, 5-6, 7-8);
#: hyperedges 0-1 are a component of their own, with the smallest IDs.
STAR = [[40, 41], [41, 42], [0, 1, 2], [0, 10], [10, 11], [1, 20], [20, 21], [2, 30], [30, 31]]


def test_remove_that_splits_a_component_in_two_carries_the_labels():
    engine = warmed(PATH, num_vertices=7)
    assert engine.metric(1, CC).tolist() == [0] * 6
    engine.remove_hyperedge(2)  # both neighbours keep a neighbour: no shift
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 1]
    stats = settle_and_check(engine)
    assert stats.delta_fallbacks == 0 and stats.patched_entries > 0


def test_remove_that_splits_a_component_in_three_carries_the_labels():
    engine = warmed(STAR, num_vertices=43)
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 1, 1, 1, 1, 1]
    engine.remove_hyperedge(2)
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert settle_and_check(engine).delta_fallbacks == 0


@pytest.mark.parametrize(
    "members, expected",
    [
        ([11, 41], [0, 0, 0, 0, 1, 1, 2, 2, 0]),  # a piece joins the other component
        ([21, 31], [0, 0, 1, 1, 2, 2, 2, 2, 2]),  # two pieces join again
        ([11, 21, 31], [0, 0, 1, 1, 1, 1, 1, 1, 1]),  # all three join again
    ],
)
def test_adds_in_the_window_of_a_split_join_the_pieces(members, expected):
    engine = warmed(STAR, num_vertices=43)
    engine.remove_hyperedge(2)
    engine.add_hyperedge(members)
    assert engine.metric(1, CC).tolist() == expected
    assert settle_and_check(engine).delta_fallbacks == 0


def test_adds_before_the_split_are_searched_through():
    engine = warmed(STAR, num_vertices=43)
    engine.add_hyperedge([11, 21])  # the chains 3-4 and 5-6 meet here too
    engine.remove_hyperedge(2)
    assert engine.metric(1, CC).tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 1]
    assert settle_and_check(engine).delta_fallbacks == 0


#: Hyperedge i overlaps i - 1 and i + 1 around a cycle of eight.
CYCLE = [[i, (i + 1) % 8] for i in range(8)]


@pytest.mark.parametrize(
    "victims, expected",
    [
        ((0, 4), [0, 0, 0, 1, 1, 1]),  # two cuts: two paths
        ((0, 1), [0] * 6),  # the second victim was the first's neighbour
    ],
)
def test_a_window_of_two_removes_is_carried(victims, expected):
    engine = warmed(CYCLE, num_vertices=8)
    for victim in victims:
        engine.remove_hyperedge(victim)
    assert engine.metric(1, CC).tolist() == expected
    assert settle_and_check(engine).delta_fallbacks == 0


def test_an_edge_added_and_removed_in_one_window_leaves_no_trace():
    engine = warmed(STAR, num_vertices=43)
    squeezed = engine.squeezed_graph(1)
    engine.add_hyperedge([11, 41])
    engine.remove_hyperedge(9)
    assert engine.squeezed_graph(1)[0] is squeezed[0]  # nothing left to patch
    assert settle_and_check(engine).delta_fallbacks == 0


def test_a_neighbour_isolated_then_removed_in_one_window_is_carried():
    engine = warmed(PATH, num_vertices=7)
    engine.remove_hyperedge(1)  # hyperedge 0 loses its only neighbour ...
    engine.remove_hyperedge(0)  # ... and then goes too: nothing shifted
    assert engine.metric(1, CC).tolist() == [0, 0, 0, 0]
    assert settle_and_check(engine).delta_fallbacks == 0


def test_an_isolated_edge_linked_then_removed_in_one_window_is_carried():
    engine = warmed(STAR + [[50]], num_vertices=61)  # hyperedge 9 has no neighbour
    engine.add_hyperedge([50, 60])  # its only neighbour is hyperedge 9 ...
    engine.remove_hyperedge(9)  # ... which leaves before anyone looked
    assert settle_and_check(engine).delta_fallbacks == 0


#: Every hyperedge but 1 holds vertex 0, so L_1 is a clique on the other
#: six and no remove of up to four of them isolates a survivor; hyperedge 1
#: overlaps nobody, so squeezed ID k is hyperedge k + 1 from k = 1 on.
HUB = [[0, 1], [9], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6]]


@pytest.mark.parametrize(
    "updates, gone",
    [
        ([("remove", 0)], [0]),  # the first squeezed ID
        ([("remove", 6)], [5]),  # the last, n - 1
        ([("remove", 3), ("remove", 4)], [2, 3]),  # two adjacent IDs
        ([("remove", 5), ("remove", 2)], [1, 4]),  # two apart, the higher first
        ([("remove", 0), ("add", [0, 7])], [0]),  # the inserted row is not shifted
    ],
)
def test_a_shifted_splice_equals_the_recompute(updates, gone):
    engine = warmed(HUB, num_vertices=10)
    graph, mapping = engine.squeezed_graph(1)
    for op, argument in updates:
        apply_update(engine, op, argument)
    removed = [argument for op, argument in updates if op == "remove"]
    assert np.searchsorted(mapping.new_to_old, sorted(removed)).tolist() == gone
    carried = delta.squeezed(graph, mapping, engine._journal[-len(updates) :], 1)
    assert carried is not None  # a shift, not a shifted squeeze
    fresh = QueryEngine(engine.hypergraph).squeezed_graph(1)
    assert carried[0].indices.dtype == fresh[0].indices.dtype == np.int32
    for got, want in zip(
        (carried[0].indptr, carried[0].indices, carried[1].new_to_old),
        (fresh[0].indptr, fresh[0].indices, fresh[1].new_to_old),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_a_shift_out_beside_a_shift_in_declines_and_recomputes():
    engine = warmed(STAR + [[50]], num_vertices=51)
    engine.remove_hyperedge(3)  # hyperedge 4 loses its only neighbour
    engine.add_hyperedge([40, 50])  # hyperedge 9 gets its first one
    assert settle_and_check(engine).delta_fallbacks == 1  # Stage 4 at s = 1; CC is carried


def test_a_split_beside_a_shifted_squeeze_declines_and_recomputes():
    engine = warmed(STAR + [[50]], num_vertices=51)  # hyperedge 9 has no neighbour
    engine.remove_hyperedge(2)
    engine.add_hyperedge([11, 50])  # hyperedge 9 gets its first neighbour
    assert settle_and_check(engine).delta_fallbacks == 1  # Stage 4 at s = 1; CC is carried


def test_a_shifted_squeeze_is_a_degree_change_for_components():
    """A hyperedge that joins L_s (its first neighbour) or leaves it (its
    last neighbour's remove) moves every squeezed ID above it; the labels
    are still carried, and the IDs served beside them shift with them."""
    engine = warmed(STAR + [[50]], num_vertices=61)  # hyperedge 9 has no neighbour
    for update, argument in (("add", [50, 60]), ("remove", 3)):
        # 9 gets its first neighbour; then 4 loses its only one, 3.
        apply_update(engine, update, argument)
        before = engine.stats()
        ids, labels = engine.metric_columns(1, CC)
        after = engine.stats()
        assert after.patched_entries == before.patched_entries + 1, update
        assert after.delta_fallbacks == before.delta_fallbacks == 0, update
        fresh = QueryEngine(engine.hypergraph)
        for got, want in zip((ids, labels), fresh.metric_columns(1, CC)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), update
        assert_cache_matches_fresh(engine)
    assert ids.tolist() == [0, 1, 2, 5, 6, 7, 8, 9, 10]  # 4 left, 9 and 10 joined


def test_components_misses_splice_no_squeezed_csr_within_the_bound(monkeypatch):
    """Components misses read the window's rows: a squeezed CSR is spliced
    only once it trails by ``_RESPLICE`` updates, and then once."""
    engine = warmed([[i, i + 1] for i in range(40)], num_vertices=41)  # L_1 is a path
    spliced = []
    splice = delta.squeezed

    def counting(*args):
        spliced.append(args[-1])
        return splice(*args)

    monkeypatch.setattr(delta, "squeezed", counting)
    for step in range(engine_module._RESPLICE - 1):
        if step % 4 == 3:
            engine.remove_hyperedge(9 * step % 40)  # splits the path
        else:
            engine.add_hyperedge([5 * step % 41, (11 * step + 3) % 41])
        engine.metric_columns(1, CC)
        engine.metric(2, CC)
    assert spliced == []
    assert_cache_matches_fresh(engine)
    engine.add_hyperedge([0, 4])
    engine.metric(1, CC)
    assert spliced == [1]  # the CSR at s = 1 trailed by _RESPLICE updates
    settle_and_check(engine)


def test_remove_that_isolates_a_neighbour_shifts_the_squeeze():
    engine = warmed([[0, 1], [1, 2], [5, 6], [6, 7]], num_vertices=8)
    engine.remove_hyperedge(0)  # hyperedge 1 loses its only neighbour
    assert engine.squeezed_graph(1)[1].new_to_old.tolist() == [2, 3]
    assert settle_and_check(engine).delta_fallbacks > 0


def test_remove_of_an_already_empty_edge_journals_nothing():
    engine = warmed(TWO_COMPONENTS + [[]], num_vertices=12)
    fingerprint, entries = engine.fingerprint(), len(engine._cache)
    engine.remove_hyperedge(5)
    assert engine.fingerprint() == fingerprint and len(engine._cache) == entries
    assert engine._journal == ()
    settle_and_check(engine)


def test_update_before_the_index_is_built_recomputes():
    engine = QueryEngine(hypergraph_from_edge_lists(TWO_COMPONENTS, num_vertices=12))
    engine.add_hyperedge([0, 2])  # no index yet: no overlap row to journal
    assert engine._journal == ()
    stats = settle_and_check(engine)
    assert stats.patched_entries == stats.delta_fallbacks == 0
    assert stats.index_builds == 1


def test_more_updates_than_the_journal_holds_drops_the_entries():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    for _ in range(engine_module._MAX_PENDING):
        engine.add_hyperedge([0, 1])
    assert any(key[1] == 1 for key in engine._cache.keys())  # still reachable
    engine.add_hyperedge([0, 1])
    assert not any(key[1] <= 2 for key in engine._cache.keys())  # dropped
    stats = settle_and_check(engine)
    assert stats.patched_entries == stats.delta_fallbacks == 0


def test_entries_within_the_journal_are_carried_across_all_of_it():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    for step in range(engine_module._MAX_PENDING):
        engine.add_hyperedge(([0, 2], [5, 7], [1, 6], [2, 5])[step % 4])
    assert len(engine._journal) == engine_module._MAX_PENDING
    stats = settle_and_check(engine)
    assert stats.delta_fallbacks == 0 and stats.patched_entries > 0


@pytest.mark.parametrize("removed", [0, 1, 2, 3])
def test_paper_figure_1(paper_example_unlabelled, removed):
    engine = QueryEngine(paper_example_unlabelled)
    query_everything(engine)
    engine.add_hyperedge([1, 2, 4])  # overlaps every hyperedge of Figure 1
    assert engine.line_graph(2).edge_set() == {(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 4)}
    settle_and_check(engine)
    engine.remove_hyperedge(removed)
    settle_and_check(engine)

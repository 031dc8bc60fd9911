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
        assert graph.weights is None  # Stage 4 is unweighted, carried or fresh
        return {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "new_to_old": mapping.new_to_old,
            "num_vertices": np.int64(graph.num_vertices),
            "metadata_s": np.int64(graph.metadata["s"]),
        }
    return {"values": value}


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


def test_a_line_graph_nothing_derives_from_is_patched():
    engine = warmed_line_graphs(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([0, 2])
    engine.remove_hyperedge(2)
    for s in S_RANGE:
        engine.line_graph(s)
    assert engine.line_graph(1).edge_set() == {(0, 1), (0, 5), (1, 5)}
    assert_cache_matches_fresh(engine)
    stats = engine.stats()
    assert stats.patched_entries == 2 and stats.delta_fallbacks == 0  # L_1 and L_2


def test_add_that_activates_an_isolated_hyperedge_shifts_the_squeeze():
    engine = warmed(TWO_COMPONENTS, num_vertices=12)
    engine.add_hyperedge([10, 11])  # hyperedge 4 gets its first neighbour
    stats = settle_and_check(engine)
    assert stats.delta_fallbacks == 2  # Stage 4 rebuilt and CC re-run, at s = 1
    assert stats.patched_entries == 2  # the row is empty at s = 2: both carried


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

    engine = warmed_line_graphs(TWO_COMPONENTS, num_vertices=12)
    before = engine.line_graph(2)
    engine.add_hyperedge([0, 5, 11])
    after = engine.line_graph(2)
    assert after.edges is before.edges and after.weights is before.weights
    assert after.num_hyperedges == 6
    assert after.active_vertices.tolist() == [0, 1, 2, 3, 4, 5]
    assert_cache_matches_fresh(engine)


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
    assert settle_and_check(engine).delta_fallbacks == 2  # Stage 4 and CC, at s = 1


def test_a_split_beside_a_shifted_squeeze_declines_and_recomputes():
    engine = warmed(STAR + [[50]], num_vertices=51)  # hyperedge 9 has no neighbour
    engine.remove_hyperedge(2)
    engine.add_hyperedge([11, 50])  # hyperedge 9 gets its first neighbour
    assert settle_and_check(engine).delta_fallbacks == 2  # Stage 4 and CC, at s = 1


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
    for members in ([0, 2], [5, 7], [1, 6], [2, 5]):
        engine.add_hyperedge(members)
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

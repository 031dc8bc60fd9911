"""Property-based tests (hypothesis) for the overlap-index query engine.

The central invariants:

* for every s, the engine serves exactly what :class:`SLinePipeline` and the
  independent ``line_graph_from_filtration`` oracle compute from scratch;
* after any interleaved sequence of ``add_hyperedge`` / ``remove_hyperedge``
  updates, the incrementally maintained engine agrees exactly with a full
  rebuild over the updated hypergraph;
* the hypergraph fingerprint is invariant under member-order permutation and
  injective over the generated structures in practice.
"""

import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.filtration import line_graph_from_filtration
from repro.core.pipeline import SLinePipeline
from repro.engine.engine import QueryEngine
from repro.hypergraph.builders import hypergraph_from_edge_lists
from repro.hypergraph.csr import CSRMatrix
from repro.hypergraph.hypergraph import Hypergraph

S_RANGE = range(1, 6)


@st.composite
def hypergraphs(draw, max_vertices=12, max_edges=10, max_edge_size=6):
    """Random small hypergraphs, including empty edges and duplicate edges."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edge_lists = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=num_vertices - 1),
                min_size=0,
                max_size=max_edge_size,
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return hypergraph_from_edge_lists(edge_lists, num_vertices=num_vertices)


#: One update step: add a hyperedge (member list) or remove one (index seed).
update_steps = st.lists(
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=11), min_size=0, max_size=5),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=5,
)


def assert_engine_matches_oracles(engine, h):
    pipeline = SLinePipeline(metrics=("connected_components",))
    for s in S_RANGE:
        served = engine.line_graph(s)
        expected = pipeline.run(h, s)
        assert served == expected.line_graph, s
        assert served == line_graph_from_filtration(h, s), s
        assert np.array_equal(
            served.active_vertices, expected.line_graph.active_vertices
        ), s
        assert np.array_equal(
            engine.metric(s, "connected_components"),
            expected.metrics["connected_components"],
        ), s


@settings(max_examples=40, deadline=None)
@given(h=hypergraphs())
def test_engine_matches_pipeline_and_filtration_oracle(h):
    assert_engine_matches_oracles(QueryEngine(h), h)


@settings(max_examples=30, deadline=None)
@given(h=hypergraphs(), steps=update_steps)
def test_interleaved_updates_match_full_rebuild(h, steps):
    engine = QueryEngine(h)
    for s in S_RANGE:  # warm the cache so migration paths are exercised
        engine.line_graph(s)
    for step in steps:
        if isinstance(step, list):
            engine.add_hyperedge(step)
        else:
            engine.remove_hyperedge(step % engine.hypergraph.num_edges)
        engine.line_graph(2)  # interleave queries with updates
    current = engine.hypergraph
    rebuilt = QueryEngine(current)
    for s in S_RANGE:
        assert engine.line_graph(s) == rebuilt.line_graph(s), s
        assert np.array_equal(
            engine.line_graph(s).active_vertices,
            rebuilt.line_graph(s).active_vertices,
        ), s
    assert_engine_matches_oracles(engine, current)
    assert engine.stats().index_builds <= 1


@settings(max_examples=30, deadline=None)
@given(h=hypergraphs(), s_values=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_sweep_matches_point_queries(h, s_values):
    engine = QueryEngine(h)
    sweep = engine.sweep(s_values)
    fresh = QueryEngine(h)
    for s in set(s_values):
        assert engine.line_graph(s) == fresh.line_graph(s)
        assert sweep.edge_counts[s] == fresh.line_graph(s).num_edges
        assert sweep.active_counts[s] == fresh.line_graph(s).num_active_vertices


@settings(max_examples=40, deadline=None)
@given(h=hypergraphs(), data=st.data())
def test_fingerprint_invariant_under_member_permutation(h, data):
    edge_lists = [list(map(int, h.edge_members(i))) for i in range(h.num_edges)]
    shuffled = [
        data.draw(st.permutations(members)) if members else []
        for members in edge_lists
    ]
    twin = hypergraph_from_edge_lists(shuffled, num_vertices=h.num_vertices)
    assert twin.fingerprint() == h.fingerprint()


@settings(max_examples=40, deadline=None)
@given(h=hypergraphs(), data=st.data())
def test_fingerprint_of_stored_row_order_matches_sorted_rows(h, data):
    """The digest sums over incidences, so no stored row order — sorted or
    permuted — can change it."""
    edges = h.edges_csr
    permuted = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [
            np.asarray(data.draw(st.permutations(list(map(int, members)))), dtype=np.int64)
            for _, members in edges.iter_rows()
        ]
    )
    twin = Hypergraph(
        edges=CSRMatrix(indptr=edges.indptr, indices=permuted, num_cols=edges.num_cols)
    )
    assert twin.fingerprint() == h.fingerprint()


def assert_dual_csr_consistent(h):
    """``vertices_csr`` is exactly the transpose of ``edges_csr``."""
    transposed = h.edges_csr.transpose()
    assert h.vertices_csr.shape == transposed.shape
    assert np.array_equal(h.vertices_csr.indptr, transposed.indptr)
    assert np.array_equal(h.vertices_csr.indices, transposed.indices)


@settings(max_examples=30, deadline=None)
@given(h=hypergraphs(), steps=update_steps)
def test_every_update_keeps_dual_csr_and_answers_of_a_fresh_engine(h, steps):
    """Adds (empty member sets and brand-new vertex IDs included) and removes
    maintain the vertex→edge CSR incrementally; after *every* step it equals
    the transpose and the engine answers like one built from scratch."""
    engine = QueryEngine(h)
    for s in S_RANGE:
        engine.line_graph(s)
    for step in steps:
        if isinstance(step, list):
            engine.add_hyperedge(step)
        else:
            engine.remove_hyperedge(step % engine.hypergraph.num_edges)
        current = engine.hypergraph
        assert_dual_csr_consistent(current)
        rebuilt = hypergraph_from_edge_lists(
            [list(map(int, members)) for _, members in current.iter_edges()],
            num_vertices=current.num_vertices,
        )
        assert current.fingerprint() == rebuilt.fingerprint()
        fresh = QueryEngine(rebuilt)
        for s in S_RANGE:
            assert engine.line_graph(s) == fresh.line_graph(s), s
            assert np.array_equal(
                engine.metric(s, "connected_components"),
                fresh.metric(s, "connected_components"),
            ), s


#: One served update: an add (members, brand-new vertex IDs included) or a
#: remove (an index seed).
served_steps = st.lists(
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=14), min_size=0, max_size=5),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(h=hypergraphs(), steps=served_steps)
def test_served_updates_carry_the_from_scratch_fingerprint(h, steps):
    """On the served shape (an engine over a store's sharded index), the
    fingerprint carried through each add and remove equals the one a
    hypergraph built from the model computes from scratch, and the
    materialised hypergraph equals that model."""
    from repro.store import IndexStore

    model = [list(map(int, members)) for _, members in h.iter_edges()]
    num_vertices = h.num_vertices
    with tempfile.TemporaryDirectory() as path:
        IndexStore.build(h, path, num_shards=2)
        engine = QueryEngine(h, index=IndexStore.open(path).sharded_index())
        for step in steps:
            if isinstance(step, list):
                assert engine.add_hyperedge(step) == len(model)
                model.append(sorted(set(step)))
                num_vertices = max([num_vertices, *[v + 1 for v in step]])
            else:
                victim = step % len(model)
                engine.remove_hyperedge(victim)
                model[victim] = []
            expected = hypergraph_from_edge_lists(model, num_vertices=num_vertices)
            assert engine.fingerprint() == expected.fingerprint()
            assert engine.hypergraph == expected
        engine.index.close()

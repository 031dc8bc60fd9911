"""Property test licensing ``SLineGraph.squeeze()`` to skip re-normalisation.

``squeeze()`` adopts its relabelled arrays through ``from_canonical``.  That
is sound only while the Stage-4 relabel is strictly increasing: then unique,
pair-sorted ``(i < j)`` rows stay unique, pair-sorted and ``i < j``.  The
full constructor is the reference — it re-sorts, re-orients and dedupes
whatever it is given, so any relabel that stopped being monotone would make
the two disagree.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.slinegraph import SLineGraph


@st.composite
def canonical_line_graphs(draw):
    """A line graph over a sparse slice of the ID space, sometimes with
    ``active_vertices`` that have no edge (which squeezing drops)."""
    n = draw(st.integers(min_value=0, max_value=24))
    s = draw(st.integers(min_value=1, max_value=4))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = []
    if n >= 2:
        pairs = draw(
            st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=30)
        )
    weights = draw(
        st.lists(
            st.integers(min_value=s, max_value=s + 5),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    active = None
    if n and draw(st.booleans()):
        active = draw(st.lists(ids, max_size=n))
    graph = SLineGraph(
        s=s,
        edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(weights, dtype=np.int64),
        num_hyperedges=n,
        active_vertices=None if active is None else np.asarray(active, dtype=np.int64),
    )
    return graph


def _graph(n, pairs, active=None):
    return SLineGraph(
        s=1,
        edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        weights=np.ones(len(pairs), dtype=np.int64),
        num_hyperedges=n,
        active_vertices=active,
    )


@settings(max_examples=200, deadline=None)
@given(graph=canonical_line_graphs())
@example(graph=_graph(0, []))
@example(graph=_graph(5, []))
@example(graph=_graph(5, [], active=[0, 4]))
@example(graph=_graph(9, [(0, 8)]))
@example(graph=_graph(9, [(0, 8)], active=[0, 3, 8]))
@example(graph=_graph(9, [(8, 0), (3, 8), (0, 3)], active=[1]))
def test_squeeze_equals_the_full_constructor_on_the_relabelled_input(graph):
    squeezed, mapping = graph.squeeze()

    # The ID set, derived the long way round: the edge endpoints.
    retained = np.unique(graph.edges.ravel()).astype(np.int64)
    assert mapping.new_to_old.dtype == np.int64
    assert np.array_equal(mapping.new_to_old, retained)

    # The relabel, one ID at a time through a dict, then every check and
    # normalisation pass of the constructor.
    old_to_new = {int(old): new for new, old in enumerate(retained)}
    relabelled = np.asarray(
        [[old_to_new[int(i)], old_to_new[int(j)]] for i, j in graph.edges],
        dtype=np.int64,
    ).reshape(-1, 2)
    reference = SLineGraph(
        s=graph.s,
        edges=relabelled,
        weights=graph.weights.copy(),
        num_hyperedges=retained.size,
        active_vertices=np.arange(retained.size, dtype=np.int64),
    )
    for name in ("edges", "weights", "active_vertices"):
        got, want = getattr(squeezed, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert squeezed.s == reference.s
    assert squeezed.num_hyperedges == reference.num_hyperedges
    assert squeezed == reference

    # Both directions of the one mapping.
    for old in range(graph.num_hyperedges):
        if old in old_to_new:
            assert mapping.to_squeezed(old) == old_to_new[old]
            assert mapping.to_original(mapping.to_squeezed(old)) == old
        else:
            with pytest.raises(KeyError):
                mapping.to_squeezed(old)

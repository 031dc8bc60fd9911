"""The packed-key pair order equals the two-key lexsort it replaced.

``SLineGraph``'s one normaliser sorts pairs by a single int64 key and skips
the orientation, self-loop and duplicate passes whenever the rows show they
are not needed.  The body it had before — unconditional min/max copies,
``np.lexsort((hi, lo))``, a two-column duplicate compare, ``column_stack`` —
is kept here as the reference: same values, same dtypes, same layout, same
errors, on every input shape the fast path branches on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.core.slinegraph import (
    _MAX_PACKED_BOUND,
    SLineGraph,
    _normalise_edges,
    pair_order,
)
from repro.engine.index import weight_pair_order
from repro.utils.validation import ValidationError, check_array_int


def reference_normalise(edges, weights):
    """``_normalise_edges`` as it was before the packed-key order."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("edges must be an array of shape (k, 2)")
    if weights is None:
        w = np.ones(arr.shape[0], dtype=np.int64)
    else:
        w = check_array_int(weights, "weights")
        if w.size != arr.shape[0]:
            raise ValidationError("weights length must equal the number of edges")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(lo == hi):
        raise ValidationError("self-loops are not allowed in an s-line graph")
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not np.all(keep):
        group = np.cumsum(keep) - 1
        max_w = np.zeros(int(group[-1]) + 1, dtype=np.int64)
        np.maximum.at(max_w, group, w)
        lo, hi = lo[keep], hi[keep]
        w = max_w
    return np.column_stack([lo, hi]), w


#: IDs at or beyond ``2**32`` push ``bound`` past ``_MAX_PACKED_BOUND``, so
#: the lexsort arm runs.
HUGE = 2**40

SHAPES = ("oriented", "reversed", "mixed", "store", "shuffled", "huge")


@st.composite
def weighted_pairs(draw, self_loops=False, min_id=0):
    """``(edges, weights)`` in one of the shapes the normaliser branches on.

    ``store`` is what a shard slice looks like: (i, j)-sorted weight classes,
    one after another.  Repeated pairs carry different weights.
    """
    shape = draw(st.sampled_from(SHAPES))
    base = HUGE if shape == "huge" else 0
    ids = st.integers(min_value=min_id, max_value=40).map(lambda v: v + base)
    pair = st.tuples(ids, ids)
    if not self_loops:
        pair = pair.filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=60))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(pairs), max_size=len(pairs)))
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64)
    if shape in ("oriented", "store", "huge"):
        edges = np.sort(edges, axis=1)
    elif shape == "reversed":
        edges = np.sort(edges, axis=1)[:, ::-1]
    if shape == "store":
        order = np.lexsort((edges[:, 1], edges[:, 0], weights))
        edges, weights = edges[order], weights[order]
    elif shape == "shuffled":
        order = draw(st.permutations(range(len(pairs))))
        edges, weights = edges[list(order)], weights[list(order)]
    return edges, weights


def _pairs(rows, weights=None):
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    if weights is None:
        weights = np.ones(edges.shape[0], dtype=np.int64)
    return edges, np.asarray(weights, dtype=np.int64)


def assert_same_arrays(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert g.shape == e.shape
        assert np.array_equal(g, e)


@settings(max_examples=300, deadline=None)
@given(case=weighted_pairs())
@example(case=_pairs([]))
@example(case=_pairs([(3, 7)]))
@example(case=_pairs([(7, 3)]))
@example(case=_pairs([(0, 1), (1, 0), (0, 1)], [2, 5, 3]))
@example(case=_pairs([(HUGE + 2, HUGE), (HUGE, HUGE + 1), (HUGE, HUGE + 2)], [1, 2, 4]))
def test_normaliser_equals_the_lexsort_reference(case):
    edges, weights = case
    got = _normalise_edges(edges, weights)
    expected = reference_normalise(edges, weights)
    assert_same_arrays(got, expected)
    assert got[0].flags.c_contiguous
    assert got[0].tobytes() == expected[0].tobytes()
    # Default weights and non-C layouts go through the same passes.
    assert_same_arrays(_normalise_edges(edges, None), reference_normalise(edges, None))
    for layout in (np.asfortranarray(edges), np.column_stack([edges, edges])[:, 1:3]):
        relaid = _normalise_edges(layout, weights)
        assert_same_arrays(relaid, got)
        assert relaid[0].flags.c_contiguous


@settings(max_examples=150, deadline=None)
@given(case=weighted_pairs())
@example(case=_pairs([(0, 1), (0, 2), (1, 2)], [1, 2, 3]))  # nothing to fix
def test_constructed_graph_never_aliases_its_input(case):
    edges, weights = case
    graph = SLineGraph(
        s=1, edges=edges, weights=weights, num_hyperedges=int(edges.max(initial=0)) + 1
    )
    kept_edges, kept_weights = graph.edges.copy(), graph.weights.copy()
    edges[...] = -1
    weights[...] = -1
    assert np.array_equal(graph.edges, kept_edges)
    assert np.array_equal(graph.weights, kept_weights)


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(0, 30), max_size=40), ascending=st.booleans())
def test_active_vertices_equal_np_unique_and_are_never_aliased(ids, ascending):
    """Already sorted and unique (what an index passes) skips ``np.unique``."""
    given_ids = np.asarray(sorted(set(ids)) if ascending else ids, dtype=np.int64)
    expected = np.unique(given_ids)
    graph = SLineGraph(1, np.empty((0, 2), dtype=np.int64), None, 31, given_ids)
    assert_same_arrays((graph.active_vertices,), (expected,))
    given_ids[...] = -1
    assert np.array_equal(graph.active_vertices, expected)


def _error_text(function, *args):
    with pytest.raises(ValidationError) as caught:
        function(*args)
    return str(caught.value)


@settings(max_examples=150, deadline=None)
@given(case=weighted_pairs(self_loops=True))
def test_self_loops_and_ragged_weights_raise_the_reference_text(case):
    edges, weights = case
    if edges.shape[0] and np.any(edges[:, 0] == edges[:, 1]):
        expected = _error_text(reference_normalise, edges, weights)
        assert _error_text(_normalise_edges, edges, weights) == expected
    ragged = np.append(weights, 1)
    if edges.shape[0]:
        assert (
            _error_text(_normalise_edges, edges, ragged)
            == _error_text(reference_normalise, edges, ragged)
            == "weights length must equal the number of edges"
        )


@settings(max_examples=150, deadline=None)
@given(case=weighted_pairs(min_id=-3))
def test_negative_and_out_of_range_endpoints_are_rejected_as_before(case):
    edges, weights = case
    # The normaliser itself accepts them (and must still agree with the
    # reference: a negative ID takes the lexsort arm) ...
    assert_same_arrays(_normalise_edges(edges, weights), reference_normalise(edges, weights))
    if not edges.shape[0]:
        return
    # ... it is ``__post_init__`` that rejects, in this order.
    top = max(int(edges.max()), 0)
    if int(edges.max()) >= 0:
        assert (
            _error_text(SLineGraph, 1, edges, weights, top)
            == "edge endpoint exceeds num_hyperedges"
        )
    if int(edges.min()) < 0:
        assert (
            _error_text(SLineGraph, 1, edges, weights, top + 1)
            == "edge endpoints must be non-negative"
        )


@settings(max_examples=300, deadline=None)
@given(case=weighted_pairs(self_loops=True, min_id=-3))
@example(case=_pairs([]))
def test_pair_and_weight_orders_are_the_lexsort_permutations(case):
    """Ties included: both helpers are stable, as ``np.lexsort`` is."""
    edges, weights = case
    assert np.array_equal(pair_order(edges), np.lexsort((edges[:, 1], edges[:, 0])))
    assert np.array_equal(
        weight_pair_order(edges, weights),
        np.lexsort((edges[:, 1], edges[:, 0], weights)),
    )


def test_huge_ids_take_the_lexsort_arm():
    edges, _ = _pairs([(HUGE + 5, HUGE + 9), (2**32, 2**32 + 1), (HUGE, HUGE + 1)])
    assert int(edges.max()) + 1 > _MAX_PACKED_BOUND
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        order = pair_order(edges)
    assert spy.call_count == 1
    assert order.tolist() == [1, 2, 0]


def test_largest_packable_bound_does_not_overflow():
    """At ``bound == _MAX_PACKED_BOUND`` the largest key is ``bound**2 - 1``,
    the last square below ``2**63``; one more and the key would wrap."""
    top = _MAX_PACKED_BOUND - 1
    assert (top + 1) ** 2 < 2**63 <= (top + 2) ** 2
    edges, _ = _pairs([(top, top - 1), (top - 1, top), (0, top), (top, 0), (top, top)])
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        order = pair_order(edges)
    assert spy.call_count == 0
    assert np.array_equal(order, np.lexsort((edges[:, 1], edges[:, 0])))


@st.composite
def canonical_graphs(draw):
    edges, weights = draw(weighted_pairs().filter(lambda c: int(c[0].max(initial=0)) < HUGE))
    return SLineGraph(
        s=1, edges=edges, weights=weights, num_hyperedges=int(edges.max(initial=0)) + 2
    )


@settings(max_examples=200, deadline=None)
@given(graph=canonical_graphs(), weighted=st.booleans())
def test_adjacency_matrix_lands_sorted(graph, weighted):
    """coo→csr writes every row ascending, so no sort runs — and the three
    arrays are those of the upper-triangle-first derivation, sorted."""
    with mock.patch.object(
        sparse.csr_matrix, "sort_indices", autospec=True, side_effect=AssertionError
    ):
        got = graph.adjacency_matrix(weighted=weighted)
        assert got.has_sorted_indices

    vals = graph.weights if weighted else np.ones(graph.num_edges, dtype=np.int64)
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    n = graph.num_hyperedges
    expected = sparse.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    expected.sort_indices()
    assert_same_arrays(
        (got.indptr, got.indices, got.data),
        (expected.indptr, expected.indices, expected.data),
    )

"""A damaged shard is the store's fault, not the caller's.

The rows a :class:`ShardedIndex` streams go through the full
:class:`SLineGraph` constructor; what it rejects there is on-disk data, so
it must surface as :class:`StoreFormatError` (``unavailable`` on the wire),
never as the bare ``ValidationError`` that means "your request is invalid".
"""

import os

import numpy as np
import pytest

from repro.engine.index import OverlapIndex
from repro.store.format import SHARD_DIR, StoreError, StoreFormatError, read_manifest
from repro.store.sharded import ShardedIndex
from repro.store.snapshot import write_snapshot
from repro.utils.validation import ValidationError


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    write_snapshot(
        OverlapIndex.build(community_hypergraph),
        tmp_path,
        community_hypergraph.fingerprint(),
        num_shards=3,
    )
    return tmp_path


def overwrite_last_row(store_path, kind, row):
    """Replace the heaviest row of the first non-empty shard's ``kind`` file."""
    info = next(i for i in read_manifest(store_path).shards if i.num_pairs)
    name = info.edges_file if kind == "edges" else info.weights_file
    array = np.load(os.path.join(str(store_path), SHARD_DIR, name), mmap_mode="r+")
    array[-1] = row
    array.flush()


DAMAGE = [
    pytest.param("edges", (3, 3), "self-loops", id="self-loop"),
    pytest.param("edges", (0, 10**6), "exceeds num_hyperedges", id="out-of-range"),
    pytest.param("edges", (-4, 2), "non-negative", id="negative"),
    pytest.param("weights", 0, "weights must be >= s", id="weight-below-cut"),
]


@pytest.mark.parametrize("kind, row, reason", DAMAGE)
@pytest.mark.parametrize("query", ["line_graph", "sweep"])
def test_damaged_rows_are_a_store_format_error(store_path, kind, row, reason, query):
    overwrite_last_row(store_path, kind, row)
    index = ShardedIndex(store_path)
    with pytest.raises(StoreFormatError) as caught:
        if query == "line_graph":
            index.line_graph(1)
        else:
            index.sweep([1, 2, 3])
    message = str(caught.value)
    assert reason in message
    assert str(store_path) in message
    assert "generation 0" in message
    assert isinstance(caught.value.__cause__, ValidationError)


@pytest.mark.parametrize("query", ["line_graph", "sweep"])
def test_an_invalid_s_is_still_the_callers_error(store_path, query):
    overwrite_last_row(store_path, "edges", (3, 3))
    index = ShardedIndex(store_path)
    with pytest.raises(ValidationError, match="s must be >= 1") as caught:
        if query == "line_graph":
            index.line_graph(0)
        else:
            index.sweep([0, 1])
    assert not isinstance(caught.value, StoreError)

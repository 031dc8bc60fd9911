"""``HyperedgeValues`` behaves like the ``{edge_id: value}`` dict it replaced.

``ServiceClient.metric`` used to rebuild a Python dict from the response's
two columns; it now returns a read-only mapping over them.  Against
``dict(zip(ids.tolist(), vals.tolist()))`` — the dict it replaced — the
mapping must agree on size, order, lookup, absent keys, equality in both
directions and immutability, for any strictly ascending int64 IDs and any
non-NaN float64 values (``-0.0`` and ``inf`` included).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.service.transport import HyperedgeValues

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
VALUE = st.one_of(st.sampled_from([-0.0, 0.0, np.inf, -np.inf]), st.floats(allow_nan=False))


@st.composite
def columns(draw):
    ids = sorted(draw(st.sets(INT64, max_size=24)))
    values = draw(st.lists(VALUE, min_size=len(ids), max_size=len(ids)))
    return np.array(ids, dtype=np.int64), np.array(values, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(columns(), st.lists(st.one_of(INT64, st.integers()), max_size=4), st.data())
def test_mapping_matches_the_dict_it_replaced(cols, probes, data):
    ids, vals = cols
    m = HyperedgeValues(ids, vals)
    d = dict(zip(ids.tolist(), vals.tolist()))

    assert len(m) == len(d)
    assert list(m) == list(d)
    assert all(type(k) is int for k in m)
    assert list(m.items()) == list(d.items())
    for k in d:
        assert type(m[k]) is float and m[k] == d[k]
        assert k in m
    for k in probes:
        if k not in d:
            with pytest.raises(KeyError):
                m[k]
    for k in ("5", None):
        with pytest.raises(KeyError):
            m[k]
        assert m.get(k) is None

    copy = HyperedgeValues(ids.copy(), vals.copy())
    for a, b in ((m, d), (d, m), (m, copy), (copy, m)):
        assert a == b
        assert not a != b

    with pytest.raises(TypeError):
        m[ids[0] if len(ids) else 0] = 1.0

    if not len(ids):
        return
    at = data.draw(st.integers(min_value=0, max_value=len(ids) - 1))
    changed_vals = vals.copy()
    changed_vals[at] = 0.5 if vals[at] != 0.5 else 1.5
    changed = HyperedgeValues(ids.copy(), changed_vals)
    changed_dict = dict(zip(ids.tolist(), changed_vals.tolist()))
    for a, b in ((m, changed), (changed, m), (m, changed_dict), (changed_dict, m)):
        assert a != b
        assert not a == b

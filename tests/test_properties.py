"""Hypothesis properties of window groups: the JSON form round-trips, and
multiplication is associative on the consistent tables of the search."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from test_closure_oracle import searched_windows
from test_collect_oracle import central_tables, interior_tables

from zsys.zsystem import WindowGroup


@st.composite
def raw_tables(draw):
    """A table on a window of width at most 7 whose words may have any
    support in the window and any exponent, zero and negative ones included,
    which the constructor normalises."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    lo = draw(st.integers(-4, 4))
    hi = lo + draw(st.integers(0, 6))
    index = st.integers(lo, hi)
    comm = {}
    for i, j in draw(st.lists(st.tuples(index, index).filter(lambda t: t[0] < t[1]), max_size=8)):
        comm[(i, j)] = draw(st.dictionaries(index, st.integers(-2 * p, 2 * p), max_size=3))
    return WindowGroup(p, lo, hi, comm)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wg=st.one_of(raw_tables(), interior_tables(), central_tables()))
def test_json_round_trip(wg):
    data = wg.to_json_dict()
    again = WindowGroup.from_json_dict(json.loads(json.dumps(data)))
    assert again == wg and hash(again) == hash(wg)
    assert again.to_json_dict() == data
    assert (again.p, again.lo, again.hi, again.comm) == (wg.p, wg.lo, wg.hi, wg.comm)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_associativity_on_search_tables(data):
    wg = data.draw(st.sampled_from(searched_windows()))
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    a, b, c = data.draw(vector), data.draw(vector), data.draw(vector)
    assert wg.mul_vec(wg.mul_vec(a, b), c) == wg.mul_vec(a, wg.mul_vec(b, c))

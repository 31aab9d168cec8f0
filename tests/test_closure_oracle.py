"""Differential test of `zsystem.closure` against the closure it replaced.

`bfs_closure` is the breadth-first closure that coset enumeration replaced:
it multiplies every element found by every seed until nothing new appears.
It does not rest on associativity, so on a group it is the subgroup
generated by the seeds.  `closure` presumes a group, so the tables drawn
here are consistent: the search tables at p = 2 and p = 3, central and not,
and random central tables that pass the overlap test.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_collect_oracle import central_tables

from zsys.analysis import search_tables
from zsys.zsystem import DEFAULT_CAP, CapExceeded, WindowGroup, closure, overlap_violation


def bfs_closure(wg, seed_vecs, cap=None) -> set:
    """Multiplicative closure of the seeds, breadth first; raises CapExceeded
    at the cap + 1st element."""
    cap = DEFAULT_CAP if cap is None else cap
    gens = [v for v in dict.fromkeys(seed_vecs) if v != wg.identity_vec]
    seen = {wg.identity_vec}
    frontier = [wg.identity_vec]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = wg.mul_vec(v, g)
                if w not in seen:
                    seen.add(w)
                    if len(seen) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap} (at {len(seen)} elements)")
                    new.append(w)
        frontier = new
    return seen


@functools.lru_cache(maxsize=None)
def searched_windows() -> tuple:
    """The consistent tables of the search at p = 2 on [0, 5] and at p = 3 on
    [0, 4] (support bound 1): 115 + 199 windows, class 1 to 3."""
    return tuple(
        WindowGroup.from_json_dict(item["table"])
        for p, hi in ((2, 5), (3, 4))
        for item in search_tables(p, 0, hi, 1)
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded as err:
        return str(err)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_closure_matches_bfs(data):
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(searched_windows()))
    else:
        wg = data.draw(central_tables())
        # at most 729 elements, so that the oracle stays quick
        assume(wg.order <= 3**6 and overlap_violation(wg) is None)
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    letters = [wg.gen_vec(i) for i in wg.indices()] + [wg.identity_vec]
    seeds = data.draw(st.lists(st.sampled_from(letters) | vector, max_size=5))
    if seeds:
        seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=2))
    expected = bfs_closure(wg, seeds)
    assert closure(wg, seeds) == expected
    assert closure(wg, data.draw(st.permutations(seeds))) == expected
    cap = data.draw(st.integers(1, len(expected) + 1))
    assert outcome(closure, wg, seeds, cap) == outcome(bfs_closure, wg, seeds, cap)


def test_closure_cap_message():
    # the cap is checked per element: the message names the cap + 1st
    wg = searched_windows()[0]
    seeds = [wg.gen_vec(i) for i in wg.indices()]
    assert len(closure(wg, seeds, cap=wg.order)) == wg.order
    with pytest.raises(CapExceeded, match=r"cap 10 \(at 11 elements\)"):
        closure(wg, seeds, cap=10)

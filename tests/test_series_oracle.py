"""Differential tests of the series in `analysis` against the element-based
series they replaced.

`analysis` forms X' as the normal closure of the table words, and each term
gamma_(k+1) of the lower central series as the normal closure of the
commutators of the generators of gamma_k with the window generators.  The
oracles here form the same subgroups from commutators of elements:
X' from every pair of window generators, gamma_(k+1) from every element of
gamma_k.  `commutator_subgroup` and `derived_series` are the brute-force
definitions, over whole element sets.  All of them presume a consistent
table, so the tables drawn here are: the search tables at p = 2 and p = 3
(class 1 to 3, central and not), and random central tables that pass the
overlap test.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_closure_oracle import outcome, searched_windows
from test_collect_oracle import central_tables

from zsys.analysis import (
    Subgroup,
    derived_subgroup,
    generate,
    lower_central_series,
    nilpotency_class,
    normal_closure,
)
from zsys.zsystem import closure, overlap_violation


def commutator_normal_closure(wg, a_vecs, b_vecs, cap=None) -> Subgroup:
    """The normal closure of every commutator [a, b], a and b from the lists."""
    comms = {wg.comm_vec(x, y) for x in a_vecs for y in b_vecs} - {wg.identity_vec}
    return normal_closure(wg, sorted(comms), cap)


def oracle_derived_subgroup(wg, cap=None) -> Subgroup:
    """X' from the commutators of every ordered pair of window generators."""
    gens = [wg.gen_vec(i) for i in wg.indices()]
    return commutator_normal_closure(wg, gens, gens, cap)


def oracle_lower_central_series(wg, cap=None) -> list:
    """[None, gamma_2, ...] down to the trivial term, each term the normal
    closure of [y, x] over every element y of the previous term and every
    window generator x."""
    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    series = [None]
    current = oracle_derived_subgroup(wg, cap)
    series.append(current)
    steps = 0
    while not current.is_trivial():
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("lower central series does not descend; table is inconsistent")
        current = commutator_normal_closure(wg, current.sorted_elements(), window_gens, cap)
        series.append(current)
    return series


def oracle_class(wg, cap=None) -> int:
    return len(oracle_lower_central_series(wg, cap)) - 1


def commutator_subgroup(wg, a: Subgroup, b: Subgroup, cap=None) -> Subgroup:
    """Brute-force [A, B]: all commutators over the two element sets, closed."""
    comms = {wg.comm_vec(x, y) for x in a.elements for y in b.elements} - {wg.identity_vec}
    return generate(wg, sorted(comms), cap)


def derived_series(wg, cap=None) -> list:
    """[None, X', X'', ...] down to the trivial term, each term generated by
    the commutators of every pair of elements of the previous one."""
    series = [None]
    current = derived_subgroup(wg, cap)
    series.append(current)
    steps = 0
    while not current.is_trivial():
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("derived series does not descend; table is inconsistent")
        gens = current.sorted_elements()
        comms = {wg.comm_vec(x, y) for x in gens for y in gens} - {wg.identity_vec}
        nxt = Subgroup(wg, sorted(comms), closure(wg, sorted(comms), cap))
        if not nxt.elements < current.elements and not nxt.is_trivial():
            raise RuntimeError("derived series does not descend; table is inconsistent")
        current = nxt
        series.append(current)
    return series


def check_series(wg):
    derived = derived_subgroup(wg)
    assert derived.elements == oracle_derived_subgroup(wg).elements, wg.comm
    series = lower_central_series(wg)
    expected = oracle_lower_central_series(wg)
    assert [t.elements for t in series[1:]] == [t.elements for t in expected[1:]], wg.comm
    assert nilpotency_class(wg) == len(expected) - 1


def test_series_match_oracle_on_search_tables():
    windows = searched_windows()
    assert len(windows) == 314
    classes = set()
    for wg in windows:
        check_series(wg)
        classes.add(nilpotency_class(wg))
    assert classes == {1, 2, 3}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_series_match_oracle_on_central_tables(data):
    wg = data.draw(central_tables())
    assume(wg.order <= 3**6 and overlap_violation(wg) is None)
    check_series(wg)
    # the same subgroups are formed, so a cap is exceeded by both or neither,
    # with the same message
    cap = data.draw(st.integers(1, wg.order))
    assert outcome(nilpotency_class, wg, cap) == outcome(oracle_class, wg, cap)
    assert outcome(lambda: derived_subgroup(wg, cap).elements) == outcome(
        lambda: oracle_derived_subgroup(wg, cap).elements
    )


def test_cap_outcome_on_search_tables():
    for wg in searched_windows()[::7]:
        for cap in (1, 2, 4, 9, 27):
            assert outcome(nilpotency_class, wg, cap) == outcome(oracle_class, wg, cap), wg.comm

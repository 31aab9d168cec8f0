"""Differential tests of the series in `analysis` against the element-based
series they replaced.

`analysis` forms X' as the normal closure of the table words, and each term
gamma_(k+1) of the lower central series as the normal closure of the
commutators of the generators of gamma_k with the window generators.  The
oracles here form the same subgroups from commutators of elements:
X' from every pair of window generators, gamma_(k+1) from every element of
gamma_k.  `commutator_subgroup` and `derived_series` are the brute-force
definitions, over whole element sets.  `oracle_lemma_checks` is the lemma
report built without sharing the series: it forms [Y, X], [Y, X, X] and the
image of each series term by normal closures of their own.  All of them
presume a consistent table, so the tables drawn here are: the search tables at p = 2 and p = 3
(class 1 to 3, central and not), and random central tables, which all pass the
overlap test.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_closure_oracle import non_central_windows, outcome, searched_windows, unitary_window
from test_collect_oracle import central_tables

from zsys import analysis
from zsys.analysis import (
    Subgroup,
    derived_subgroup,
    generate,
    lemma_checks,
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    normal_closure,
    single_shift_extends,
)
from zsys.zsystem import CapExceeded, WindowGroup, closure, overlap_violation


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


def oracle_lemma_checks(wg, cap=None, trials: int = 50, seed: int = 0) -> dict:
    """The lemma report with each subgroup formed by a normal closure of its
    own: X', [X', X] and [X', X, X] for bilinearity, then the series and, for
    each term, its image under commutation with the window generators."""
    rng = random.Random(seed)
    checks = {}

    cut = lower_cutoff(wg, max(wg.width - 1, 1))
    entry = {"pass": True, "cutoff": cut.value}
    if cut.value is not None:
        d = cut.value
        even_hit = [
            (i, i + d)
            for i in range(wg.lo, wg.hi + 1 - d)
            if i % 2 == 0 and wg.comm.get((i, i + d))
        ]
        odd_hit = [
            (i, i + d)
            for i in range(wg.lo, wg.hi + 1 - d)
            if i % 2 == 1 and wg.comm.get((i, i + d))
        ]
        entry["pass"] = not (even_hit and odd_hit)
        entry["even_start_pairs"] = even_hit
        entry["odd_start_pairs"] = odd_hit
    checks["cutoff_alternation"] = entry

    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    try:
        derived = derived_subgroup(wg, cap)
        yx = commutator_normal_closure(wg, derived.generators, window_gens, cap)
        yxx = commutator_normal_closure(wg, yx.generators, window_gens, cap)
        ok = True
        witness = None
        dsorted = derived.sorted_elements()
        for _ in range(trials):
            y = dsorted[rng.randrange(len(dsorted))]
            y2 = dsorted[rng.randrange(len(dsorted))]
            x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
            lhs = wg.comm_vec(wg.mul_vec(y, y2), x)
            base = wg.mul_vec(wg.comm_vec(y, x), wg.comm_vec(y2, x))
            if wg.mul_vec(wg.inv_vec(base), lhs) not in yxx.elements:
                ok = False
                witness = {"y": list(y), "y2": list(y2), "x": list(x)}
                break
        checks["commutator_bilinearity"] = {"pass": ok, "trials": trials}
        if witness:
            checks["commutator_bilinearity"]["witness"] = witness
    except CapExceeded:
        raise
    except RuntimeError as err:
        checks["commutator_bilinearity"] = {"pass": False, "error": str(err)}

    try:
        series = lower_central_series(wg, cap)
        derived = series[1]
        ok = True
        witness = None
        for term in series[1:]:
            if term.is_trivial():
                continue
            image = commutator_normal_closure(wg, term.generators, window_gens, cap)
            if not (image.elements < term.elements):
                ok = False
                witness = {"term_order": term.order, "image_order": image.order}
                break
        if ok and not derived.is_trivial() and derived.order >= wg.order:
            ok = False
            witness = {"term_order": wg.order, "image_order": derived.order}
        checks["commutator_image_proper"] = {"pass": ok}
        if witness:
            checks["commutator_image_proper"]["witness"] = witness
    except CapExceeded:
        raise
    except RuntimeError as err:
        checks["commutator_image_proper"] = {"pass": False, "error": str(err)}

    abelian = wg.is_abelian()
    unit_shift = single_shift_extends(wg)
    vacuous = cut.value == wg.hi - wg.lo
    checks["abelian_iff_unit_shift"] = {
        "pass": abelian == unit_shift or vacuous,
        "abelian": abelian,
        "unit_shift_invariant": unit_shift,
    }
    if vacuous:
        checks["abelian_iff_unit_shift"]["vacuous_at_boundary"] = True

    return {
        "p": wg.p,
        "lo": wg.lo,
        "hi": wg.hi,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def same_report(report, expected):
    """Equal, with the keys of every entry in the same order."""
    assert report == expected
    assert [list(c) for c in report["checks"].values()] == [
        list(c) for c in expected["checks"].values()
    ]


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
    # the search classes a central table by structure, with no series: every
    # central table passes the overlap test, and its class is 2, or 1 when
    # it is empty
    wg = data.draw(central_tables())
    assert overlap_violation(wg) is None
    assert nilpotency_class(wg) == (2 if wg.comm else 1)
    assume(wg.order <= 3**6)
    check_series(wg)
    # the same subgroups are formed, so a cap is exceeded by both or neither,
    # with the same message
    cap = data.draw(st.integers(1, wg.order))
    assert outcome(nilpotency_class, wg, cap) == outcome(oracle_class, wg, cap)
    assert outcome(lambda: derived_subgroup(wg, cap).elements) == outcome(
        lambda: oracle_derived_subgroup(wg, cap).elements
    )


def test_search_forms_the_series_of_non_central_tables_only(monkeypatch):
    formed = []

    def counted(wg, cap=None):
        formed.append(wg.to_json_dict())
        return nilpotency_class(wg, cap)

    monkeypatch.setattr(analysis, "nilpotency_class", counted)
    items = [item for p, hi in ((3, 4), (2, 5)) for item in analysis.search_tables(p, 0, hi, 1)]
    monkeypatch.undo()
    windows = [WindowGroup.from_json_dict(item["table"]) for item in items]
    assert formed == [wg.to_json_dict() for wg in windows if not wg._central]
    assert len(formed) == 78
    assert [item["class"] for item in items] == [nilpotency_class(wg) for wg in windows]


def check_commutators_formed_once(wg):
    """The series forms [v, g] once for each generator v of each term and
    each window generator g, and inverts nothing outside those commutators:
    it forms no conjugate.  A commutator inverts once on a window that is
    not central and never on a central one, where it has a closed form."""
    calls, inverses = Counter(), []
    comm_vec, inv_vec = WindowGroup.comm_vec, WindowGroup.inv_vec

    def counted_comm(self, a, b):
        calls[(a, b)] += 1
        return comm_vec(self, a, b)

    def counted_inv(self, a):
        inverses.append(a)
        return inv_vec(self, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WindowGroup, "comm_vec", counted_comm)
        mp.setattr(WindowGroup, "inv_vec", counted_inv)
        series = lower_central_series(wg)
    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    expected = Counter((v, g) for term in series[1:] for v in term.generators for g in window_gens)
    assert calls == expected, wg.comm
    assert len(inverses) == (0 if wg._central else sum(calls.values())), wg.comm
    assert [t.elements for t in series[1:]] == [
        t.elements for t in oracle_lower_central_series(wg)[1:]
    ], wg.comm


def test_series_commutators_formed_once_on_search_tables():
    for wg in searched_windows()[::3]:
        check_commutators_formed_once(wg)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_series_commutators_formed_once_on_central_tables(data):
    wg = data.draw(central_tables())
    assume(wg.order <= 3**6 and overlap_violation(wg) is None)
    check_commutators_formed_once(wg)


def test_cap_outcome_on_search_tables():
    for wg in searched_windows()[::7]:
        for cap in (1, 2, 4, 9, 27):
            assert outcome(nilpotency_class, wg, cap) == outcome(oracle_class, wg, cap), wg.comm


def test_lemma_checks_match_oracle_on_search_tables():
    for k, wg in enumerate(searched_windows()):
        same_report(lemma_checks(wg, seed=k), oracle_lemma_checks(wg, seed=k))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_lemma_checks_match_oracle_on_drawn_tables(data):
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(searched_windows()))
    else:
        wg = data.draw(central_tables())
        assume(wg.order <= 3**6 and overlap_violation(wg) is None)
    trials = data.draw(st.integers(1, 60))
    seed = data.draw(st.integers(0, 2**32))
    cap = data.draw(st.none() | st.integers(1, wg.order))
    got = outcome(lambda: lemma_checks(wg, cap, trials, seed))
    expected = outcome(lambda: oracle_lemma_checks(wg, cap, trials, seed))
    if isinstance(expected, dict):
        same_report(got, expected)
    else:
        assert got == expected


def quotient_bilinearity(wg, trials: int, seed: int):
    """The bilinearity entry of the lemma report with every trial decided by
    the plain quotient test, base^-1 lhs in gamma_4 whether or not the two
    sides are equal, and the number of trials whose sides differ."""
    rng = random.Random(seed)
    series = lower_central_series(wg)
    derived = series[1].sorted_elements()
    gamma4 = series[min(3, len(series) - 1)].elements
    witness, unequal = None, 0
    for _ in range(trials):
        y = derived[rng.randrange(len(derived))]
        y2 = derived[rng.randrange(len(derived))]
        x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
        lhs = wg.comm_vec(wg.mul_vec(y, y2), x)
        base = wg.mul_vec(wg.comm_vec(y, x), wg.comm_vec(y2, x))
        unequal += lhs != base
        if wg.mul_vec(wg.inv_vec(base), lhs) not in gamma4:
            witness = {"y": list(y), "y2": list(y2), "x": list(x)}
            break
    entry = {"pass": witness is None, "trials": trials}
    if witness is not None:
        entry["witness"] = witness
    return entry, unequal


def unitriangular_window(p: int, n: int) -> WindowGroup:
    """UT_n(F_p), of class n - 1, on its root elements 1 + E_rs (r < s) in
    lexicographic order, a convex order: the root r-t of the one nontrivial
    commutator [1 + E_st, 1 + E_rs] = 1 - E_rt lies between r-s and s-t, so
    every word is strictly interior."""
    roots = list(itertools.combinations(range(n), 2))
    place = {root: k for k, root in enumerate(roots)}
    comm = {
        (i, j): {place[a[0], b[1]]: -1}
        for (i, a), (j, b) in itertools.combinations(enumerate(roots), 2)
        if a[1] == b[0]
    }
    return WindowGroup(p, 0, len(roots) - 1, comm)


def test_equal_sides_skip_the_quotient_without_changing_a_report():
    # lemma_checks forms the quotient only when the two sides differ.  For y
    # and y2 in gamma_2, [y y2, x] = [y, x] [[y, x], y2] [y2, x], and
    # [[y, x], y2] lies in [gamma_3, gamma_2], inside gamma_5: so the sides
    # are equal on every window of class at most 4, the class-3 search
    # tables and the central unitary window among them, and differ only
    # from class 5 on, as on UT_6(F_2)
    cases = [(wg, 50, 0) for wg in non_central_windows()]
    cases += [(unitary_window(5, 0, 7), 200, 0), (unitriangular_window(2, 6), 200, None)]
    for wg, trials, unequal in cases:
        counts = 0
        for seed in range(3):
            expected, count = quotient_bilinearity(wg, trials, seed)
            got = lemma_checks(wg, trials=trials, seed=seed)["checks"]["commutator_bilinearity"]
            assert got == expected, wg.comm
            counts += count
        if unequal is None:
            assert nilpotency_class(wg) == 5 and counts > 0
        else:
            assert counts == unequal


def test_equal_sides_form_no_inverse(monkeypatch):
    # on the central unitary window every trial has equal sides
    def refuse(self, a):
        raise AssertionError("a trial formed an inverse")

    wg = unitary_window(5, 0, 7)
    monkeypatch.setattr(WindowGroup, "inv_vec", refuse)
    assert lemma_checks(wg, trials=500, seed=1)["pass"]

"""Differential tests of the series in `analysis` against the element-based
series they replaced.

`analysis` reads the series off the rounds of the table words
(`_commutator_rounds`): S_1 the nontrivial table words, S_(k+1) the
nontrivial commutators of S_k with the window generators.  The class is 1 +
the number of rounds, with no subgroup formed; gamma_(k+1) is the subgroup
generated by the rounds from S_k on, and a normal closure the subgroup
generated by every round of its seeds.  The oracles here form the same
subgroups from commutators of elements: X' from every pair of window
generators, gamma_(k+1) from every element of gamma_k, and a normal closure
from every conjugate of its seeds over the enumerated group.
`commutator_subgroup` and `derived_series` are the brute-force
definitions, over whole element sets.  `oracle_lemma_checks` is the lemma
report built without sharing the series: it forms Y = X' and [Y, X, X] by
normal closures of their own, from the table words, which generate Y as a
normal subgroup, and from their iterated commutators with the window
generators, and the image of each series term from the commutators of all
its elements.  All of them presume a consistent table, so the tables drawn
here are: the search tables at p = 2 and p = 3 (class 1 to 3, central and
not), and random central tables, which all pass the overlap test.  The
class and the search are also run with every closure made to raise, and the
commutator of the generic fold, which the rounds form, is checked on the
class-3 search tables and on random strictly interior tables, consistent or
not.  Every subgroup is the packed set that `closure` returns, compared as
exponent tuples (`elements`).
"""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_closure_oracle import (
    bfs_closure,
    elements,
    non_central_windows,
    outcome,
    searched_windows,
    unitary_window,
)
from test_collect_oracle import central_tables, interior_tables, letters_of, oracle_collect

from zsys import analysis, zsystem
from zsys.analysis import (
    lemma_checks,
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    normal_closure,
    single_shift_extends,
)
from zsys.zsystem import CapExceeded, WindowGroup, closure, overlap_violation


def commutator_seeds(wg, a_vecs, b_vecs) -> list:
    """Every nontrivial commutator [a, b], a and b from the lists, sorted."""
    return sorted({wg.comm_vec(x, y) for x in a_vecs for y in b_vecs} - {wg.identity_vec})


def commutator_normal_closure(wg, a_vecs, b_vecs, cap=None) -> set:
    """The normal closure of every commutator [a, b], a and b from the lists."""
    return normal_closure(wg, commutator_seeds(wg, a_vecs, b_vecs), cap)


def oracle_derived_subgroup(wg, cap=None) -> set:
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
    while len(current) > 1:
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("lower central series does not descend; table is inconsistent")
        current = commutator_normal_closure(wg, sorted(elements(current)), window_gens, cap)
        series.append(current)
    return series


def oracle_class(wg, cap=None) -> int:
    return len(oracle_lower_central_series(wg, cap)) - 1


def commutator_subgroup(wg, a: set, b: set, cap=None) -> set:
    """Brute-force [A, B]: all commutators over the two element sets, closed."""
    return closure(wg, commutator_seeds(wg, elements(a), elements(b)), cap)


def derived_series(wg, cap=None) -> list:
    """[None, X', X'', ...] down to the trivial term, X' the term gamma_2 of
    the lower central series and each later term generated by the
    commutators of every pair of elements of the previous one."""
    series = [None]
    current = lower_central_series(wg, cap)[1]
    series.append(current)
    steps = 0
    while len(current) > 1:
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("derived series does not descend; table is inconsistent")
        nxt = commutator_subgroup(wg, current, current, cap)
        if not nxt < current and len(nxt) > 1:
            raise RuntimeError("derived series does not descend; table is inconsistent")
        current = nxt
        series.append(current)
    return series


def oracle_lemma_checks(wg, cap=None, trials: int = 50, seed: int = 0) -> dict:
    """The lemma report with each subgroup formed by a normal closure of its
    own: X' and [X', X, X] for bilinearity, then the series and, for each
    term, its image under commutation with the window generators."""
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
        # Y = X' is the normal closure of the table words, so [Y, X] is that
        # of their commutators with the window generators, and so on
        words = analysis._table_words(wg)
        derived = normal_closure(wg, words, cap)
        yx_seeds = commutator_seeds(wg, words, window_gens)
        yxx = commutator_normal_closure(wg, yx_seeds, window_gens, cap)
        ok = True
        witness = None
        dsorted = sorted(elements(derived))
        for _ in range(trials):
            y = dsorted[rng.randrange(len(dsorted))]
            y2 = dsorted[rng.randrange(len(dsorted))]
            x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
            lhs = wg.comm_vec(wg.mul_vec(y, y2), x)
            base = wg.mul_vec(wg.comm_vec(y, x), wg.comm_vec(y2, x))
            if wg.mul_vec(wg.inv_vec(base), lhs) not in elements(yxx):
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
            if len(term) == 1:
                continue
            image = commutator_normal_closure(wg, sorted(elements(term)), window_gens, cap)
            if not elements(image) < elements(term):
                ok = False
                witness = {"term_order": len(term), "image_order": len(image)}
                break
        if ok and len(derived) > 1 and len(derived) >= wg.order:
            ok = False
            witness = {"term_order": wg.order, "image_order": len(derived)}
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
    derived = normal_closure(wg, analysis._table_words(wg))
    assert elements(derived) == elements(oracle_derived_subgroup(wg)), wg.comm
    series = lower_central_series(wg)
    expected = oracle_lower_central_series(wg)
    assert [elements(t) for t in series[1:]] == [elements(t) for t in expected[1:]], wg.comm
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
    # every central table passes the overlap test, and its class is 2, or 1
    # when it is empty
    wg = data.draw(central_tables())
    assert overlap_violation(wg) is None
    assert nilpotency_class(wg) == (2 if wg.comm else 1)
    assume(wg.order <= 3**6)
    check_series(wg)
    # the same subgroups are formed, so a cap is exceeded by both or neither,
    # with the same message
    cap = data.draw(st.integers(1, wg.order))
    assert outcome(lambda: elements(normal_closure(wg, analysis._table_words(wg), cap))) == outcome(
        lambda: elements(oracle_derived_subgroup(wg, cap))
    )


def refuse_closures(mp):
    """Make every closure raise, in `zsystem` and where `analysis` reads it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a closure was formed")

    mp.setattr(zsystem, "closure", refuse)
    mp.setattr(analysis, "closure", refuse)


# sha256 of the compact JSON lines that `search` prints at p=3 on [0, 4] and
# at p=2 on [0, 5], support bound 1
SEARCH_DIGESTS = {
    (3, 4): "205070d001114a75cb6e00e7f1e70904510c6ebcc68bb9e30c2873929dd96da8",
    (2, 5): "5c33707b97f28921e4ccade936e83790741147b1ac79ad3506596b9c95fa78c0",
}


def test_search_classes_every_table_and_forms_no_closure(monkeypatch):
    classed, items = [], []

    def counted(wg):
        classed.append(wg.to_json_dict())
        return nilpotency_class(wg)

    refuse_closures(monkeypatch)
    monkeypatch.setattr(analysis, "nilpotency_class", counted)
    for (p, hi), digest in SEARCH_DIGESTS.items():
        stream = list(analysis.search_tables(p, 0, hi, 1))
        text = "".join(json.dumps(item, separators=(",", ":")) + "\n" for item in stream)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (p, hi)
        items += stream
    monkeypatch.undo()
    assert classed == [item["table"] for item in items]
    assert len(classed) == 314
    windows = [WindowGroup.from_json_dict(item["table"]) for item in items]
    assert [item["class"] for item in items] == [oracle_class(wg) for wg in windows]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_class_forms_no_closure_and_matches_oracle(data):
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(searched_windows()))
    else:
        wg = data.draw(central_tables())
        assume(wg.order <= 3**6)
    with pytest.MonkeyPatch.context() as mp:
        refuse_closures(mp)
        got = nilpotency_class(wg)
    assert got == oracle_class(wg), wg.comm


def test_class_five_forms_no_closure():
    wg = unitriangular_window(2, 6)
    with pytest.MonkeyPatch.context() as mp:
        refuse_closures(mp)
        got = nilpotency_class(wg)
    assert got == oracle_class(wg) == 5


def test_commutator_round_past_the_default_cap(monkeypatch):
    # a round of unitary p=3 [0, 5] holds two elements
    wg = unitary_window(3, 0, 5)
    assert max(map(len, analysis._commutator_rounds(wg, analysis._table_words(wg)))) == 2
    monkeypatch.setattr(zsystem, "DEFAULT_CAP", 1)
    with pytest.raises(CapExceeded, match="past the cap 1"):
        nilpotency_class(wg)


def conjugate_closure(wg, seeds) -> set:
    """The subgroup generated by every conjugate h^-1 s h of the seeds over
    the enumerated group, by breadth-first closures: a conjugate joins the
    generators when it is not yet in their closure."""
    group = bfs_closure(wg, [wg.gen_vec(i) for i in wg.indices()])
    reduced = {tuple(e % wg.p for e in s) for s in seeds}
    conjugates = {wg.mul_vec(wg.inv_vec(h), wg.mul_vec(s, h)) for h in group for s in reduced}
    gens, elements = [], {wg.identity_vec}
    for c in sorted(conjugates):
        if c not in elements:
            gens.append(c)
            elements = bfs_closure(wg, gens)
    return elements


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_normal_closure_matches_conjugate_oracle(data):
    # seeds are table words, vectors of the window, and vectors with entries
    # outside 0 .. p - 1
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(searched_windows()))
    else:
        wg = data.draw(central_tables())
        assume(wg.order <= 3**5)
    p = wg.p
    seed = st.tuples(*[st.integers(-2 * p, 2 * p)] * wg.width) | st.tuples(
        *[st.integers(0, p - 1)] * wg.width
    )
    words = analysis._table_words(wg)
    if words:
        seed |= st.sampled_from(words)
    seeds = data.draw(st.lists(seed, max_size=3))
    assert elements(normal_closure(wg, seeds)) == conjugate_closure(wg, seeds), (wg.comm, seeds)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_generic_commutator_matches_written_out_quotient(data):
    # on a window that takes the generic fold, [a, b] is (b a)^-1 (a b) when
    # a b != b a, and the identity, with no inverse formed, when a b = b a.
    # On a group that is the quotient too, and both agree with collection of
    # a^-1 b^-1 a b; on an inconsistent table (b a)^-1 (a b) may differ from
    # the identity even when a b = b a.  Pairs that commute are drawn on
    # purpose: a with itself, with the identity, with a power and the inverse
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(non_central_windows()))
    else:
        wg = data.draw(interior_tables())
        assume(not wg._central)
    p, consistent = wg.p, wg.overlap_witness is None
    vector = st.tuples(*[st.integers(0, p - 1)] * wg.width)
    a = data.draw(vector)
    power = wg.collect(letters_of(wg, a) * data.draw(st.integers(0, p)))
    for b in (data.draw(vector), a, wg.identity_vec, power, wg.inv_vec(a)):
        for x, y in ((a, b), (b, a)):
            xy, yx = wg.mul_vec(x, y), wg.mul_vec(y, x)
            quotient = wg.mul_vec(wg.inv_vec(yx), xy)
            assert wg.comm_vec(x, y) == (wg.identity_vec if xy == yx else quotient), (wg.comm, x, y)
            if consistent:
                word = [(i, -e) for i, e in reversed(letters_of(wg, x))]
                word += [(i, -e) for i, e in reversed(letters_of(wg, y))]
                assert quotient == oracle_collect(wg, word + letters_of(wg, x) + letters_of(wg, y))


def check_commutators_formed_once(wg):
    """The series forms [s, x] once for each element s of each round and
    each window generator x, and inverts nothing outside those commutators:
    it forms no conjugate.  A commutator inverts once for a pair that does
    not commute on a window that is not central, and never otherwise: a
    commuting pair gives the identity at once, and a central window has a
    closed form."""
    rounds = analysis._commutator_rounds(wg, analysis._table_words(wg))
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
    expected = Counter((s, x) for r in rounds for s in r for x in window_gens)
    assert calls == expected, wg.comm
    noncommuting = sum(n for (a, b), n in calls.items() if wg.mul_vec(a, b) != wg.mul_vec(b, a))
    assert len(inverses) == (0 if wg._central else noncommuting), wg.comm
    assert [elements(t) for t in series[1:]] == [
        elements(t) for t in oracle_lower_central_series(wg)[1:]
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
    # the series and its oracle form the same largest subgroup, X', so a
    # cap is exceeded by both or neither, with the same message
    def terms(series_of, wg, cap):
        return [elements(term) for term in series_of(wg, cap)[1:]]

    for wg in searched_windows()[::7]:
        for cap in (1, 2, 4, 9, 27):
            got = outcome(terms, lower_central_series, wg, cap)
            assert got == outcome(terms, oracle_lower_central_series, wg, cap), wg.comm


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
    derived = sorted(elements(series[1]))
    gamma4 = elements(series[min(3, len(series) - 1)])
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

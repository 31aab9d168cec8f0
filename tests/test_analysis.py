
import gc
import itertools
import random

import pytest
from test_closure_oracle import elements
from test_overlap_memo import shift_invariant_windows, spread
from test_series_oracle import commutator_subgroup, derived_series

from zsys import analysis, zsystem
from zsys.analysis import (
    CapExceeded,
    _free_reps,
    _orbit_rows,
    _propagate,
    _word_choices,
    extendable,
    lemma_checks,
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    normal_closure,
    search_tables,
    shift_invariant_closure,
    single_shift_extends,
)
from zsys.matgroup import make_example
from zsys.zsystem import (
    WindowGroup,
    closure,
    derive_window,
    overlap_violation,
    shift_violation,
    verify_zs_axioms,
)


def unitary(p, lo, hi):
    return derive_window(make_example("unitary", p), lo, hi)


def standard(p, lo, hi):
    return derive_window(make_example("standard", p), lo, hi)


def whole_group(wg, cap=None):
    """The window group itself, enumerated by `closure` from its generators."""
    return closure(wg, [wg.gen_vec(i) for i in wg.indices()], cap)


# -- subgroup calculus ---------------------------------------------------------


def test_generate_span():
    wg = standard(3, 0, 3)
    sub = closure(wg, [wg.gen_vec(0), wg.gen_vec(2)])
    assert len(sub) == 9
    assert wg.pack(wg.gen_vec(1)) not in sub


def test_whole_group_order():
    wg = unitary(3, 0, 3)
    assert len(whole_group(wg)) == 81


def test_subgroup_order_divides_group_order():
    wg = unitary(3, 0, 4)
    for gens in ([wg.gen_vec(0)], [wg.gen_vec(0), wg.gen_vec(2)], [wg.gen_vec(1), wg.gen_vec(4)]):
        assert wg.order % len(closure(wg, gens)) == 0


def test_normal_closure_contains_generate():
    wg = unitary(3, 0, 4)
    seed = [wg.gen_vec(0)]
    assert elements(closure(wg, seed)) <= elements(normal_closure(wg, seed))


def test_commutator_subgroup_trivial_with_trivial():
    wg = unitary(3, 0, 3)
    one = closure(wg, [])
    assert len(commutator_subgroup(wg, one, whole_group(wg))) == 1


def test_derived_subgroup_two_routes_agree():
    # X' as the normal closure of the table words and as the series term
    # gamma_2 vs the literal double loop
    for builder, p, lo, hi in ((unitary, 3, 0, 4), (unitary, 5, 0, 2), (standard, 3, -2, 2)):
        wg = builder(p, lo, hi)
        whole = whole_group(wg)
        derived = normal_closure(wg, analysis._table_words(wg))
        assert derived == lower_central_series(wg)[1] == commutator_subgroup(wg, whole, whole)


def test_cap_exceeded_names_size():
    wg = unitary(3, 0, 5)
    with pytest.raises(CapExceeded, match="cap 100"):
        whole_group(wg, cap=100)


# -- series and class ----------------------------------------------------------


def test_derived_series_standard():
    series = derived_series(standard(3, -3, 3))
    assert len(series) == 2 and len(series[1]) == 1


def test_lower_central_series_unitary():
    series = lower_central_series(unitary(3, 0, 7))
    assert len(series) == 3
    assert len(series[1]) != 1
    assert len(series[2]) == 1
    # X' is spanned by the interior odd generators
    assert len(series[1]) == 27


def test_nilpotency_class_values():
    assert nilpotency_class(standard(3, 0, 7)) == 1
    assert nilpotency_class(standard(5, -3, 3)) == 1
    assert nilpotency_class(unitary(3, 0, 7)) == 2
    assert nilpotency_class(unitary(5, 0, 3)) == 2


def test_nilpotency_class_narrow_windows_abelian():
    assert nilpotency_class(unitary(3, 0, 0)) == 1
    assert nilpotency_class(unitary(3, 0, 1)) == 1


def test_nilpotency_class_p7_width8():
    assert nilpotency_class(unitary(7, 0, 7)) == 2
    assert nilpotency_class(standard(7, 0, 7)) == 1


def test_cutoff_matches_table_for_all_odd_p():
    for p in (3, 5, 7):
        ex = make_example("unitary", p)
        wg = derive_window(ex, 0, 4)
        assert lower_cutoff(ex, 6).value == lower_cutoff(wg, 4).value == 2
        assert lower_cutoff(wg, 4).witness == (0, 2)


# -- cutoff and the abelian criterion -------------------------------------------


def test_cutoff_unitary_matrix_side():
    assert lower_cutoff(make_example("unitary", 5), 6) == (2, (0, 2))
    assert lower_cutoff(make_example("unitary", 3), 6) == (2, (0, 2))


def test_cutoff_standard_abelian_within_bound():
    assert lower_cutoff(make_example("standard", 3), 10) == (None, None)


def test_cutoff_on_window_tables():
    assert lower_cutoff(unitary(3, 0, 4), 4) == (2, (0, 2))
    assert lower_cutoff(standard(3, 0, 4), 4) == (None, None)
    assert lower_cutoff(WindowGroup(3, 0, 3, {}), 3) == (None, None)


def test_cutoff_bound_validation():
    with pytest.raises(ValueError):
        lower_cutoff(make_example("standard", 3), 0)


def test_cutoff_table_scan_stops_at_the_window_span():
    # no pair lies farther apart than hi - lo, so any larger bound gives the
    # same answer at once
    for wg in (unitary(3, 0, 4), standard(3, 0, 4), WindowGroup(3, 0, 3, {}), unitary(3, 0, 0)):
        assert lower_cutoff(wg, 10**18) == lower_cutoff(wg, max(wg.hi - wg.lo, 1))


def test_cutoff_builds_each_matrix_generator_once(monkeypatch):
    # the matrix scan forms [u_n, u_(n + d)] for n in (0, 1) at each distance
    # d, in that order, from generators built once each: u_0 .. u_(bound + 1)
    ex = make_example("standard", 3)
    build, commutator = ex.u, analysis.mat_commutator
    built, index, formed = [], {}, []

    def u(k, e):
        matrix = build(k, e)
        built.append(k)
        index[id(matrix)] = k
        return matrix

    def counted(a, b):
        formed.append((index[id(a)], index[id(b)]))
        return commutator(a, b)

    monkeypatch.setattr(ex, "u", u)
    monkeypatch.setattr(analysis, "mat_commutator", counted)
    assert lower_cutoff(ex, 10) == (None, None)
    assert built == list(range(12))
    assert formed == [(n, n + d) for d in range(1, 11) for n in (0, 1)]
    unitary_ex = make_example("unitary", 3)
    build, built, formed = unitary_ex.u, [], []
    monkeypatch.setattr(unitary_ex, "u", u)
    assert lower_cutoff(unitary_ex, 10) == (2, (0, 2))
    assert built == [0, 1, 2] and formed == [(0, 1), (1, 2), (0, 2)]


def test_cutoff_budget_bounds_the_matrix_commutators(monkeypatch):
    # two commutators per distance: a bound of half the budget is the largest
    # admitted, and the next one is refused before the first commutator
    largest = analysis.CUTOFF_BUDGET // 2
    assert lower_cutoff(make_example("unitary", 3), largest) == (2, (0, 2))
    with pytest.raises(CapExceeded, match=f"{2 * largest + 2} commutators"):
        lower_cutoff(make_example("standard", 3), largest + 1)
    monkeypatch.setattr(analysis, "CUTOFF_BUDGET", 20)
    assert lower_cutoff(make_example("standard", 3), 10) == (None, None)
    with pytest.raises(CapExceeded, match="22 commutators, past the budget of 20"):
        lower_cutoff(make_example("standard", 3), 11)


def test_single_shift_extends():
    assert single_shift_extends(standard(3, 0, 5))
    assert not single_shift_extends(unitary(3, 0, 4))
    assert single_shift_extends(WindowGroup(5, 0, 6, {}))


def test_single_shift_vacuous_at_boundary_orbit():
    # the max-distance orbit has no in-window shift partner, so the predicate
    # is (vacuously) true even on this nonabelian Heisenberg window
    heis = WindowGroup(2, 0, 2, {(0, 2): {1: 1}})
    assert single_shift_extends(heis)
    assert not heis.is_abelian()


# -- lemma checks ----------------------------------------------------------------


def test_lemma_checks_pass_on_unitary():
    rep = lemma_checks(unitary(3, 0, 5))
    assert rep["pass"], rep
    alt = rep["checks"]["cutoff_alternation"]
    assert alt["cutoff"] == 2
    assert alt["even_start_pairs"] and not alt["odd_start_pairs"]


def test_lemma_checks_pass_on_standard():
    rep = lemma_checks(standard(3, -2, 3))
    assert rep["pass"]
    assert rep["checks"]["cutoff_alternation"]["cutoff"] is None


# consistent, invariant under the unit shift, nonabelian, and with noncommuting
# pairs (0, 4) and (1, 5) at the cutoff distance 4 < hi - lo
UNIT_SHIFT_TABLE = WindowGroup(2, 0, 5, {(0, 4): {2: 1}, (1, 5): {3: 1}})


def test_lemma_checks_flag_unit_shift_nonabelian_table():
    # shift-by-1-invariant yet nonabelian: the abelian criterion must fail,
    # flagging a table that cannot come from a Z-system
    wg = UNIT_SHIFT_TABLE
    assert overlap_violation(wg) is None
    rep = lemma_checks(wg)
    assert not rep["checks"]["abelian_iff_unit_shift"]["pass"]
    assert not rep["pass"]


def test_lemma_checks_pass_vacuous_boundary_window():
    # a window of the genuine unitary Z-system whose only noncommuting pair is
    # at the maximal distance: the unit shift cannot be seen to fail there, so
    # the abelian criterion passes and is marked vacuous
    rep = lemma_checks(unitary(3, 0, 2))
    entry = rep["checks"]["abelian_iff_unit_shift"]
    assert entry == {
        "pass": True,
        "abelian": False,
        "unit_shift_invariant": True,
        "vacuous_at_boundary": True,
    }
    assert rep["pass"], rep
    assert "vacuous_at_boundary" not in lemma_checks(unitary(3, 0, 5))["checks"]["abelian_iff_unit_shift"]


def test_subgroup_entry_points_refuse_an_inconsistent_table():
    # every function that forms a subgroup goes through closure, which refuses
    # the table by its overlap witness before any product
    wg = WindowGroup(2, 0, 4, {(0, 2): {1: 1}, (1, 3): {2: 1}, (2, 4): {3: 1}})
    gens = [wg.gen_vec(i) for i in wg.indices()]
    calls = [
        lambda: closure(wg, gens),
        lambda: closure(wg, []),
        lambda: normal_closure(wg, gens[:1]),
        lambda: lower_central_series(wg),
        lambda: nilpotency_class(wg),
        lambda: lemma_checks(wg),
        lambda: shift_invariant_closure(wg, gens[0], gens[1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^table is inconsistent: triple at \[3, 1, 0\]$"):
            call()
    # the refusal reads the witness that the axioms report carries
    assert verify_zs_axioms(wg)["checks"]["ZS2/ZS6"]["witness"]["indices"] == [3, 1, 0]


def test_lemma_checks_alternation_fails_when_both_parities_hit():
    rep = lemma_checks(UNIT_SHIFT_TABLE)
    assert rep["checks"]["cutoff_alternation"] == {
        "pass": False,
        "cutoff": 4,
        "even_start_pairs": [(0, 4)],
        "odd_start_pairs": [(1, 5)],
    }


def test_lemma_checks_deterministic():
    a = lemma_checks(unitary(3, 0, 4), seed=5)
    b = lemma_checks(unitary(3, 0, 4), seed=5)
    assert a == b


def test_trial_draws_are_the_randrange_stream():
    # the trials draw by rejection on getrandbits, as randrange does; no
    # pinned stream shows the draws (every pinned run passes), so this is
    # their guard.  n = 1 still spends one bit per draw, and 2, 128 are the
    # powers of two where a bit count one short would draw differently
    for n in (1, 2, 3, 5, 7, 125, 128, 257):
        for seed in range(10):
            rng, twin = random.Random(seed), random.Random(seed)
            draws = analysis._below(rng, n)
            assert [next(draws) for _ in range(300)] == [twin.randrange(n) for _ in range(300)]
            assert rng.getstate() == twin.getstate(), (n, seed)


def test_lemma_trials_draw_the_randrange_stream():
    # every trial's (y, y2, x), read off the commutators it forms, against
    # a replay of the randrange calls: y and y2 from the sorted derived
    # subgroup, then the entries of x.  Unitary p=5 [0, 7]; an abelian
    # window, whose derived list holds one element, so n = 1; and unitary
    # p=257 [0, 5], whose entries take 9-bit draws
    cases = ((unitary(5, 0, 7), 300), (standard(5, 0, 4), 100), (unitary(257, 0, 5), 50))
    for wg, trials in cases:
        derived = [tuple(v) for v in sorted(lower_central_series(wg)[1])]
        rng = random.Random(3)
        expected = []
        for _ in range(trials):
            y = derived[rng.randrange(len(derived))]
            y2 = derived[rng.randrange(len(derived))]
            x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
            expected += [(wg.mul_vec(y, y2), x), (y, x), (y2, x)]
        calls = []
        comm = wg.comm_vec

        def recorded(a, b):
            calls.append((a, b))
            return comm(a, b)

        wg.comm_vec = recorded
        assert lemma_checks(wg, trials=trials, seed=3)["pass"]
        span = len(expected)
        assert any(calls[i : i + span] == expected for i in range(len(calls) - span + 1)), wg.p


# -- shift-invariant closures ------------------------------------------------------


def test_shift_closure_trivial():
    wg = unitary(3, 0, 4)
    sub, info = shift_invariant_closure(wg, wg.identity_vec, wg.identity_vec)
    assert len(sub) == info["order"] == 1 and info["generators"] == []
    assert not info["even_start_nonempty"] and not info["odd_start_nonempty"]


def test_shift_closure_even_only():
    wg = standard(3, 0, 6)
    sub, info = shift_invariant_closure(wg, wg.gen_vec(0), wg.identity_vec)
    assert len(sub) == info["order"] == 81  # span of x_0, x_2, x_4, x_6
    assert info["generators"] == [list(wg.gen_vec(i)) for i in (0, 2, 4, 6)]
    assert info["even_start_nonempty"] and not info["odd_start_nonempty"]
    assert all(s % 2 == 0 for s in info["start_indices"])


def test_shift_closure_both_parities():
    wg = unitary(3, 0, 6)
    sub, info = shift_invariant_closure(wg, wg.gen_vec(0), wg.gen_vec(1))
    assert info["even_start_nonempty"] and info["odd_start_nonempty"]
    assert len(sub) == info["order"] == 3**7  # all of the window group


def test_two_generator_regeneration_and_its_window_limit():
    # a shift-invariant subgroup is regenerated by minimal-width even-start
    # and odd-start members when the window leaves room to shift them; a
    # parity-mixing seed shows the truncation artifact: narrow
    # representatives admit more in-window shifts than the wide seed did,
    # so the regenerated subgroup overshoots
    wg = unitary(3, 0, 6)

    def regenerate(sub):
        nonid = [v for v in sorted(elements(sub)) if v != wg.identity_vec]
        key = lambda v: (wg.stats_vec(v).width, v)
        even = [v for v in nonid if wg.stats_vec(v).start % 2 == 0]
        odd = [v for v in nonid if wg.stats_vec(v).start % 2 == 1]
        a = min(even, key=key) if even else wg.identity_vec
        b = min(odd, key=key) if odd else wg.identity_vec
        return shift_invariant_closure(wg, a, b)[0]

    full, _ = shift_invariant_closure(
        wg, wg.mul_vec(wg.gen_vec(0), wg.gen_vec(2)), wg.gen_vec(1)
    )
    assert regenerate(full) == full

    edge, _ = shift_invariant_closure(
        wg, wg.mul_vec(wg.gen_vec(0), wg.gen_vec(1)), wg.identity_vec
    )
    assert len(edge) == 243
    regen = regenerate(edge)
    assert elements(edge) < elements(regen) and len(regen) == 2187


def test_shift_closure_interior_seed():
    wg = standard(5, 0, 5)
    a = wg.mul_vec(wg.gen_vec(1), wg.gen_vec(3))  # support {1, 3}
    sub, info = shift_invariant_closure(wg, a, wg.identity_vec)
    # translates: x_1 x_3 and x_3 x_5
    assert len(sub) == info["order"] == 25
    assert info["start_indices"] == [1, 3]


# -- search -------------------------------------------------------------------------


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        list(search_tables(7, 0, 3, 1))
    with pytest.raises(ValueError):
        list(search_tables(3, 0, 8, 1))


def test_search_p2_window_0_3_abelian_first():
    results = list(search_tables(2, 0, 3, 1))
    assert results[0]["table"]["comm"] == {}
    assert results[0]["class"] == 1
    assert results[0]["extendable"]


def test_search_and_extendable_leave_no_window_for_the_collector():
    # the walker is a module-level function and holds no reference to
    # itself, so no window that the search builds or a certificate reads
    # waits for the cyclic garbage collector: with the collector off, a
    # collection afterwards finds none of them
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(list(search_tables(2, 0, 5, 1))) == 115
        assert len(list(search_tables(3, 0, 4, 1, extend_depth=2))) == 199
        wg = WindowGroup(3, 0, 4, {(0, 4): {2: 1}})
        assert [extendable(wg, 1, depth) for depth in (1, 2)] == [True, False]
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, WindowGroup)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_search_tables_are_shift_invariant_and_interior():
    for item in search_tables(2, 0, 4, 1):
        wg = WindowGroup.from_json_dict(item["table"])
        assert wg.zs5_ok() is None
        for (i, j), word in wg.comm.items():
            if j + 2 <= wg.hi:
                assert wg.comm.get((i + 2, j + 2), {}) == {k + 2: e for k, e in word.items()}


def test_search_finds_unitary_pattern_p3():
    derived = unitary(3, 0, 4).to_json_dict()
    hits = [item for item in search_tables(3, 0, 4, 1) if item["table"] == derived]
    assert len(hits) == 1
    assert hits[0]["class"] == 2
    assert hits[0]["extendable"]


def test_search_deterministic():
    a = list(search_tables(2, 0, 4, 1))
    b = list(search_tables(2, 0, 4, 1))
    assert a == b


def test_search_emits_only_consistent_tables():
    from zsys.zsystem import closure, verify_zs_axioms

    for item in search_tables(2, 0, 4, 1):
        wg = WindowGroup.from_json_dict(item["table"])
        assert verify_zs_axioms(wg)["pass"]
        size = len(closure(wg, [wg.gen_vec(i) for i in wg.indices()]))
        assert size == wg.order


def test_boundary_vacuity_characterizes_shift_violations():
    # sharp form of the abelian criterion on searched tables: a consistent
    # table that is unit-shift-invariant yet nonabelian can only hide its
    # noncommuting orbit at the window's maximal distance, where no shifted
    # partner is visible; with a comparable cutoff, unit shift forces abelian
    for hi in range(1, 5):
        for item in search_tables(2, 0, hi, 1):
            wg = WindowGroup.from_json_dict(item["table"])
            cut = lower_cutoff(wg, max(wg.width, 1))
            if single_shift_extends(wg) and not wg.is_abelian():
                assert cut.value == wg.hi - wg.lo
            if single_shift_extends(wg) and cut.value is not None and cut.value < wg.hi - wg.lo:
                raise AssertionError("comparable-cutoff table escaped the criterion")


def test_nonextendable_table_found_at_p2():
    results = list(search_tables(2, 0, 3, 1))
    combos = {json_comm(item): item["extendable"] for item in results}
    # two nonempty orbits at distance 3 with mismatched parity words cannot
    # widen consistently
    assert combos[(("0,3", (("2", 1),)), ("1,3", (("2", 1),)))] is False


def json_comm(item):
    return tuple(
        (pair, tuple(sorted(word.items()))) for pair, word in sorted(item["table"]["comm"].items())
    )


def test_extendable_depth_two():
    wg = unitary(3, 0, 4)
    assert extendable(wg, support_bound=1, depth=2)


def test_class_three_tower_dies_at_second_widening():
    # consistent nested tower of class 3: it widens once and then no
    # shift-invariant widening stays consistent, so it cannot belong to a
    # full system (whose class is at most 2)
    from zsys.zsystem import verify_zs_axioms

    wg = WindowGroup(3, 0, 4, {(0, 2): {1: 1}, (0, 4): {2: 1}, (2, 4): {3: 1}})
    assert verify_zs_axioms(wg)["pass"]
    assert nilpotency_class(wg) == 3
    assert extendable(wg, support_bound=1, depth=1)
    assert not extendable(wg, support_bound=1, depth=2)


def walked_widenings(wg: WindowGroup, support_bound: int) -> list:
    """Every widening of the table to [lo - 1, hi + 1] that the walk of
    `extendable(wg, support_bound, 1)` reaches, as the window of the orbit
    rows it holds at that leaf.  The walk is wrapped so that its root
    records each leaf and yields none, so the certificate answers False and
    walks them all; the walk's calls of itself pass through, with the
    conflict sets they return.  A subtree that yields a leaf never skips a
    choice, so every leaf is recorded; and the root returns None exactly
    when it met one."""
    lo, hi = wg.lo - 1, wg.hi + 1
    walk, leaves = analysis._walk, []

    def recording(memo, p, levels, reads, slots, choice_lists, words, idx=0):
        walked = walk(memo, p, levels, reads, slots, choice_lists, words, idx)
        if idx:
            return walked
        while True:
            try:
                next(walked)
            except StopIteration as stop:
                assert (stop.value is None) == bool(leaves)
                return iter(())
            rep_words = {
                (i, j): {i + k: e for k, e in words[i - lo][j - i]} for i, j in _free_reps(lo, hi)
            }
            leaves.append(spread(wg.p, lo, hi, rep_words))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_walk", recording)
        assert not extendable(wg, support_bound, 1)
    return leaves


def test_consistent_extensions_contain_derived_widening():
    wg = unitary(3, 0, 4)
    wider = unitary(3, -1, 5)
    assert any(ext == wider for ext in walked_widenings(wg, 1))


def test_extensions_of_a_table_that_is_not_shift_invariant():
    # the rows hold the word of each orbit's representative only, so the
    # widenings walked for wg would be those of the table that these words
    # spread to; so `extendable` refuses wg and names the first pair that
    # moves
    wg = WindowGroup(3, 0, 4, {(0, 2): {1: 2}, (0, 4): {2: 1}})
    spread_wg = WindowGroup(3, 0, 4, {(0, 2): {1: 2}, (0, 4): {2: 1}, (2, 4): {3: 2}})
    assert overlap_violation(wg) is None and overlap_violation(spread_wg) is None
    assert shift_violation(wg, 2) is not None
    found = walked_widenings(spread_wg, 1)
    assert found
    for wider in found:
        inner = {(i, j): w for (i, j), w in wider.comm.items() if 0 <= i and j <= 4}
        assert inner == spread_wg.comm and overlap_violation(wider) is None
    assert shift_violation(spread_wg, 2) is None and extendable(spread_wg, 1, 1)
    lone = WindowGroup(3, 0, 4, {(0, 2): {1: 1}})
    refusal = r"not shift-invariant: the word of \(0, 2\)"
    for table, depth in itertools.product((wg, lone), (1, 2)):
        with pytest.raises(ValueError, match=refusal):
            extendable(table, 1, depth)


def test_extendable_refuses_an_inconsistent_table():
    # the walk runs only the overlaps that read a new slot, so a table that
    # fails inside would pass it: every widening of this one walks past
    # its failing power check on x_4 x_0
    wg = WindowGroup(2, 0, 4, {(0, 2): {1: 1}, (0, 4): {2: 1}, (2, 4): {3: 1}})
    assert overlap_violation(wg)["kind"] == "power_left"
    for depth in (1, 2):
        with pytest.raises(ValueError, match=r"table is inconsistent: power_left at \[4, 0\]"):
            extendable(wg, 1, depth)
    # every shift-invariant table of p=2 [0, 4] is refused exactly when the
    # overlap test fails on it
    for table in shift_invariant_windows(2, 0, 4, 1):
        if overlap_violation(table) is None:
            extendable(table, 1, 1)
        else:
            with pytest.raises(ValueError, match="table is inconsistent"):
                extendable(table, 1, 1)


def test_extendable_refuses_a_negative_support_bound():
    wg = WindowGroup(3, 0, 4, {(0, 4): {2: 1}})
    for depth in (1, 2):
        with pytest.raises(ValueError, match="support bound must be nonnegative"):
            extendable(wg, -1, depth)
    # the depth is checked first, then the bound, then the table
    with pytest.raises(ValueError, match="depth"):
        extendable(wg, -1, 0)
    with pytest.raises(ValueError, match="support bound"):
        extendable(WindowGroup(3, 0, 4, {(0, 2): {1: 1}}), -1, 1)
    assert extendable(wg, 0, 1)


def test_overlap_decision_matches_exhaustive_oracle():
    # the search keeps a candidate iff overlap_violation finds nothing; the
    # exhaustive closure of verify_zs_axioms must agree on every candidate,
    # rejected ones included
    decisions = []
    for p, hi in ((2, 4), (3, 3)):
        for wg in shift_invariant_windows(p, 0, hi, 1):
            report = verify_zs_axioms(wg)
            consistent = overlap_violation(wg) is None
            assert consistent == report["pass"], wg.comm
            if report["pass"]:
                assert report["checks"]["ZS2/ZS6"]["method"] == "exhaustive"
            decisions.append(consistent)
    assert len(decisions) == 144 + 45
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("p, hi", [(2, 2), (2, 3), (3, 2)])
def test_consistent_extensions_match_brute_force(p, hi):
    # the levelled, backjumping walk against a full overlap test of every
    # shift-invariant widening whose restriction to [0, hi] is the table
    tables = [WindowGroup.from_json_dict(item["table"]) for item in search_tables(p, 0, hi, 1)]
    assert tables
    widenings = {}
    for wider in shift_invariant_windows(p, -1, hi + 1, 1):
        inner = {(i, j): w for (i, j), w in wider.comm.items() if 0 <= i and j <= hi}
        widenings.setdefault(WindowGroup(p, 0, hi, inner), []).append(wider)
    for wg in tables:
        expected = {w for w in widenings.get(wg, []) if overlap_violation(w) is None}
        found = walked_widenings(wg, 1)
        assert len(found) == len(set(found))
        assert set(found) == expected, wg.comm


def interior_words(p, i, j, support_bound) -> list:
    """Every word of the pair (i, j) with at most support_bound nonzero
    entries, from the exponent tuples over i+1 .. j-1."""
    return [
        {k: e for k, e in zip(range(i + 1, j), exps) if e}
        for exps in itertools.product(range(p), repeat=j - i - 1)
        if sum(1 for e in exps if e) <= support_bound
    ]


def brute_widenings(wg: WindowGroup, support_bound: int):
    """Every consistent shift-invariant table on [lo - 1, hi + 1] that
    restricts to the table, by the full overlap test of each: an orbit with
    a translate inside [lo, hi] takes the word of its first one, and every
    other orbit each word."""
    lo, hi = wg.lo - 1, wg.hi + 1
    reps = _free_reps(lo, hi)
    choices = []
    for i, j in reps:
        t = 2 if i < wg.lo else 0
        if j + t <= wg.hi:
            choices.append([{k - t: e for k, e in wg.comm.get((i + t, j + t), {}).items()}])
        else:
            choices.append(interior_words(wg.p, i, j, support_bound))
    for assignment in itertools.product(*choices):
        wider = spread(wg.p, lo, hi, dict(zip(reps, assignment)))
        if overlap_violation(wider) is None:
            yield wider


@pytest.mark.parametrize("p, hi", [(2, 2), (2, 3), (3, 2)])
def test_depth_two_certificates_match_brute_force(p, hi):
    # a certificate of depth 2 against a full overlap test of every
    # shift-invariant table two steps wider: it must widen the widened rows
    answers = []
    for item in search_tables(p, 0, hi, 1):
        wg = WindowGroup.from_json_dict(item["table"])
        expected = any(
            any(True for _ in brute_widenings(wider, 1)) for wider in brute_widenings(wg, 1)
        )
        assert extendable(wg, 1, 2) == expected, wg.comm
        answers.append(expected)
    assert True in answers


def certified_forever(wg: WindowGroup) -> bool:
    """Whether the shift-invariant table is certified to be the window of an
    infinite shift-invariant consistent table.

    Locality lemma: let a shift-invariant table have every word past
    distance R empty, and take an overlap check (k, j, i), i < j < k, of
    span k - i > 2R.  Then k - j > R or j - i > R.  If k - j > R, x_k
    commutes with x_j, with x_i and with every letter between them, so both
    sides collect to the normal form of x_j x_i followed by x_k; if j - i > R
    the same holds with x_i on the other side.  A power check (j, i) with
    j - i > R holds trivially.  So every check that can fail has span at
    most 2R, and up to a translation by 2 it lies in a window of width
    2R + 2.

    R here is the longest distance with a nonempty word.  The certificate
    is the overlap test of the shift-invariant table on [lo, lo + 2R + 1]
    with the same orbit words up to distance R and empty words past it (an
    orbit that the window does not reach is empty too).  When it passes,
    every window of the infinite table passes, so the table extends
    forever."""
    reach = max((j - i for i, j in wg.comm), default=0)
    slots = [(s, d) for s in (0, 1) for d in range(2, reach + 1)]
    words = _orbit_rows(wg)
    hi = wg.lo + 2 * reach + 1
    wider = WindowGroup(wg.p, wg.lo, hi, _propagate(wg.lo, hi, slots, words))
    return overlap_violation(wider) is None


def test_forever_certificates_agree_with_extendable():
    # the two certificates checked against each other: a table certified
    # forever extends at every depth, and by the paper has class at most 2
    def certified(items):
        return [item for item in items if certified_forever(WindowGroup.from_json_dict(item["table"]))]

    items = list(search_tables(3, 0, 4, 1, 2))
    assert (len(items), len(certified(items))) == (199, 17)
    assert all(item["extendable"] and item["class"] < 3 for item in certified(items))
    # six widenings deep, where the undecided tables have died, on the wider
    # window [0, 6] two widenings deep, and at p=5, whose units are not their
    # own inverses, two widenings deep: the extendable set is the certified
    # set, and none of it has class 3.  A certificate that skipped a choice
    # it should have walked would answer False on a table certified forever
    cases = (
        ((2, 0, 5, 1, 6), (115, 11)),
        ((2, 0, 6, 1, 2), (387, 29)),
        ((5, 0, 4, 1, 2), (1269, 49)),
    )
    for args, counts in cases:
        items = list(search_tables(*args))
        assert (len(items), len(certified(items))) == counts, args
        assert certified(items) == [item for item in items if item["extendable"]], args
        assert all(item["class"] < 3 for item in certified(items)), args
    # one widening deep, the two runs of the benchmark's `search` workload:
    # the certified tables lie inside the extendable ones, and the class-3
    # tables that survive one widening are none of them.  This walks the
    # one-level plans, whose first level checks nothing
    cases = (
        ((3, 0, 4, 1, 1), (199, 17, 23, 4)),
        ((2, 0, 5, 1, 1), (115, 11, 19, 0)),
    )
    for args, counts in cases:
        items = list(search_tables(*args))
        forever = certified(items)
        extended = [item for item in items if item["extendable"]]
        class_three = [item for item in extended if item["class"] == 3]
        assert (len(items), len(forever), len(extended), len(class_three)) == counts, args
        assert all(item in extended for item in forever), args
        assert not any(item in forever for item in class_three), args


def test_word_choices_match_filter_definition():
    # the direct construction against the definition it replaced: every
    # exponent tuple over the interior offsets, in product order, kept when
    # at most support_bound entries are nonzero; collection reads the
    # letters ascending, and the memo branches on the letters, so no two
    # words of a pair share them
    for p in (2, 3, 5):
        for d in range(1, 9):
            for support_bound in range(4):
                choices = _word_choices(p, d, support_bound)
                assert isinstance(choices, tuple)
                expected = interior_words(p, 0, d, support_bound)
                assert [dict(letters) for letters in choices] == expected, (p, d, support_bound)
                assert len(set(choices)) == len(choices)
                assert all(letters == tuple(sorted(letters)) for letters in choices)
                assert _word_choices(p, d, support_bound) is choices


def test_shared_extension_memo_matches_fresh_calls():
    # one overlap memo, warmed on the tables of another window and then
    # shared by every certificate below, must not change any answer
    shared = analysis.OverlapMemo()
    for item in search_tables(3, -1, 2, 1):
        extendable(WindowGroup.from_json_dict(item["table"]), 1, 1, memo=shared)
    warm = len(shared)
    assert warm
    runs = [(2, 4, 1, 1), (2, 4, 1, 2), (3, 3, 1, 1), (3, 3, 2, 1)]
    answers = set()
    for p, hi, support_bound, depth in runs:
        for item in search_tables(p, 0, hi, support_bound):
            wg = WindowGroup.from_json_dict(item["table"])
            result = extendable(wg, support_bound, depth, memo=shared)
            assert result == extendable(wg, support_bound, depth), (wg.comm, depth)
            answers.add(result)
    assert answers == {True, False}
    assert len(shared) > warm


def test_search_memo_limit_changes_nothing(monkeypatch):
    # emptying the search's memo after every candidate and at every
    # backtracking node of a certificate gives the same stream
    cases = [((3, 0, 3, 2), {}), ((2, 0, 4, 1), {"extend_depth": 2})]
    expected = [list(search_tables(*args, **kwargs)) for args, kwargs in cases]
    monkeypatch.setattr(analysis, "MEMO_LIMIT", 0)
    for (args, kwargs), stream in zip(cases, expected):
        assert list(search_tables(*args, **kwargs)) == stream


def test_search_memo_bound_holds_between_candidates(monkeypatch):
    # with the limit at 0 the memo is emptied before every consistency
    # decision, of a candidate or of a backtracking node, so it never holds
    # more leaves than one decision adds; a run of failing candidates too
    monkeypatch.setattr(analysis, "MEMO_LIMIT", 0)
    insert, checks_pass = analysis.OverlapMemo.insert, analysis._checks_pass
    peak = most_added = added = 0

    def counted_insert(memo, *args):
        nonlocal peak, added
        insert(memo, *args)
        added += 1
        peak = max(peak, len(memo))

    def counted_checks_pass(*args):
        nonlocal most_added, added
        added = 0
        try:
            return checks_pass(*args)
        finally:
            most_added = max(most_added, added)

    monkeypatch.setattr(analysis.OverlapMemo, "insert", counted_insert)
    monkeypatch.setattr(analysis, "_checks_pass", counted_checks_pass)
    for args in [(3, 0, 4, 1), (2, 0, 5, 1)]:
        peak = most_added = 0
        assert list(search_tables(*args))
        assert 0 < peak <= most_added, (args, peak, most_added)


def consistent(wg: WindowGroup, memo: analysis.OverlapMemo) -> bool:
    """Whether the shift-invariant table passes the overlap test, decided
    through the overlap memo; a table that is not strictly interior raises
    the collector's ValueError."""
    if wg.zs5_ok() is not None:
        raise ValueError(zsystem.NOT_INTERIOR)
    words = _orbit_rows(wg)
    return analysis._checks_pass(memo, wg.p, analysis._window_plan(wg.lo, wg.hi), words)


def test_overlap_memo_matches_plain_test():
    # one overlap memo shared by every sweep, each run forward and then
    # reversed; every decision must be that of the overlap test, which keeps
    # no memo
    memo = analysis.OverlapMemo()
    sweeps = [(2, 0, 4, 1), (3, 0, 3, 1), (3, -1, 2, 1), (3, 0, 3, 2), (5, 0, 3, 1)]
    sizes = []
    for p, lo, hi, support_bound in sweeps:
        windows = list(shift_invariant_windows(p, lo, hi, support_bound))
        results = []
        for wg in windows + windows[::-1]:
            result = consistent(wg, memo)
            assert result == (overlap_violation(wg) is None), wg.comm
            results.append(result)
        assert True in results and False in results
        sizes.append(len(memo))
    # the p=3 [-1, 2] windows are the [0, 3] ones moved down by one: the
    # memo already holds every outcome they need
    assert sizes[2] == sizes[1]
    # a table that is not strictly interior bypasses the warm memo and raises
    # the collector's error
    bad = WindowGroup(3, 0, 2, {(0, 2): {0: 1}})
    with pytest.raises(ValueError) as plain:
        overlap_violation(bad)
    with pytest.raises(ValueError) as memoised:
        extendable(bad, 1, 1, memo=memo)
    assert str(memoised.value) == str(plain.value)


def test_lemma_trials_budget(monkeypatch):
    # the benchmark's 2,000 trials fit the budget; past it the checks are
    # refused before any subgroup is formed
    assert analysis.TRIALS_BUDGET >= 2000
    wg = unitary(3, 0, 5)
    monkeypatch.setattr(analysis, "TRIALS_BUDGET", 3)
    assert lemma_checks(wg, trials=3)["checks"]["commutator_bilinearity"]["trials"] == 3
    monkeypatch.setattr(analysis, "closure", lambda *args: pytest.fail("a subgroup was formed"))
    with pytest.raises(CapExceeded, match="4 bilinearity trials are past the budget of 3"):
        lemma_checks(wg, trials=4)


def test_vacuous_certificates_are_refused():
    wg = WindowGroup(3, 0, 4, {(0, 2): {1: 1}, (0, 4): {2: 1}, (2, 4): {3: 1}})
    for bad in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            extendable(wg, 1, bad)
        # refused at the first step, before any table is yielded
        with pytest.raises(ValueError, match="depth"):
            next(search_tables(2, 0, 3, 1, extend_depth=bad))
        with pytest.raises(ValueError, match="trials"):
            lemma_checks(wg, trials=bad)


import itertools

import pytest

from zsys.analysis import (
    CapExceeded,
    _consistent_extensions,
    _free_reps,
    _propagate,
    _word_choices,
    commutator_subgroup,
    derived_series,
    derived_subgroup,
    extendable,
    generate,
    lemma_checks,
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    normal_closure,
    search_tables,
    shift_invariant_closure,
    single_shift_extends,
    whole_group,
)
from zsys.matgroup import make_example
from zsys.zsystem import WindowGroup, derive_window, overlap_violation, verify_zs_axioms


def unitary(p, lo, hi):
    return derive_window(make_example("unitary", p), lo, hi)


def standard(p, lo, hi):
    return derive_window(make_example("standard", p), lo, hi)


# -- subgroup calculus ---------------------------------------------------------


def test_generate_span():
    wg = standard(3, 0, 3)
    sub = generate(wg, [wg.gen_vec(0), wg.gen_vec(2)])
    assert sub.order == 9
    assert wg.gen_vec(1) not in sub


def test_whole_group_order():
    wg = unitary(3, 0, 3)
    assert whole_group(wg).order == 81


def test_subgroup_order_divides_group_order():
    wg = unitary(3, 0, 4)
    for gens in ([wg.gen_vec(0)], [wg.gen_vec(0), wg.gen_vec(2)], [wg.gen_vec(1), wg.gen_vec(4)]):
        assert wg.order % generate(wg, gens).order == 0


def test_normal_closure_contains_generate():
    wg = unitary(3, 0, 4)
    seed = [wg.gen_vec(0)]
    assert generate(wg, seed).elements <= normal_closure(wg, seed).elements


def test_commutator_subgroup_trivial_with_trivial():
    wg = unitary(3, 0, 3)
    one = generate(wg, [])
    assert commutator_subgroup(wg, one, whole_group(wg)).is_trivial()


def test_derived_subgroup_two_routes_agree():
    # normal closure of generator commutators vs the literal double loop
    for builder, p, lo, hi in ((unitary, 3, 0, 4), (unitary, 5, 0, 2), (standard, 3, -2, 2)):
        wg = builder(p, lo, hi)
        whole = whole_group(wg)
        assert derived_subgroup(wg) == commutator_subgroup(wg, whole, whole)


def test_cap_exceeded_names_size():
    wg = unitary(3, 0, 5)
    with pytest.raises(CapExceeded, match="cap 100"):
        whole_group(wg, cap=100)


# -- series and class ----------------------------------------------------------


def test_derived_series_standard():
    series = derived_series(standard(3, -3, 3))
    assert len(series) == 2 and series[1].is_trivial()


def test_lower_central_series_unitary():
    series = lower_central_series(unitary(3, 0, 7))
    assert len(series) == 3
    assert not series[1].is_trivial()
    assert series[2].is_trivial()
    # X' is spanned by the interior odd generators
    assert series[1].order == 27


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


def test_lemma_checks_flag_unit_shift_nonabelian_table():
    # shift-by-1-invariant yet nonabelian: the abelian criterion must fail,
    # flagging a table that cannot come from a Z-system
    wg = WindowGroup(2, 0, 4, {(0, 2): {1: 1}, (1, 3): {2: 1}, (2, 4): {3: 1}})
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


def test_lemma_checks_alternation_fails_when_both_parities_hit():
    wg = WindowGroup(2, 0, 4, {(0, 2): {1: 1}, (1, 3): {2: 1}, (2, 4): {3: 1}})
    rep = lemma_checks(wg)
    assert not rep["checks"]["cutoff_alternation"]["pass"]


def test_lemma_checks_deterministic():
    a = lemma_checks(unitary(3, 0, 4), seed=5)
    b = lemma_checks(unitary(3, 0, 4), seed=5)
    assert a == b


# -- shift-invariant closures ------------------------------------------------------


def test_shift_closure_trivial():
    wg = unitary(3, 0, 4)
    sub, info = shift_invariant_closure(wg, wg.identity_vec, wg.identity_vec)
    assert sub.is_trivial()
    assert not info["even_start_nonempty"] and not info["odd_start_nonempty"]


def test_shift_closure_even_only():
    wg = standard(3, 0, 6)
    sub, info = shift_invariant_closure(wg, wg.gen_vec(0), wg.identity_vec)
    assert sub.order == 81  # span of x_0, x_2, x_4, x_6
    assert info["even_start_nonempty"] and not info["odd_start_nonempty"]
    assert all(s % 2 == 0 for s in info["start_indices"])


def test_shift_closure_both_parities():
    wg = unitary(3, 0, 6)
    sub, info = shift_invariant_closure(wg, wg.gen_vec(0), wg.gen_vec(1))
    assert info["even_start_nonempty"] and info["odd_start_nonempty"]
    assert sub.order == 3**7  # all of the window group


def test_two_generator_regeneration_and_its_window_limit():
    # a shift-invariant subgroup is regenerated by minimal-width even-start
    # and odd-start members when the window leaves room to shift them; a
    # parity-mixing seed shows the truncation artifact: narrow
    # representatives admit more in-window shifts than the wide seed did,
    # so the regenerated subgroup overshoots
    wg = unitary(3, 0, 6)

    def regenerate(sub):
        nonid = [v for v in sub.sorted_elements() if v != wg.identity_vec]
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
    assert edge.order == 243
    regen = regenerate(edge)
    assert edge < regen and regen.order == 2187


def test_shift_closure_interior_seed():
    wg = standard(5, 0, 5)
    a = wg.mul_vec(wg.gen_vec(1), wg.gen_vec(3))  # support {1, 3}
    sub, info = shift_invariant_closure(wg, a, wg.identity_vec)
    # translates: x_1 x_3 and x_3 x_5
    assert sub.order == 25
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


def test_consistent_extensions_contain_derived_widening():
    wg = unitary(3, 0, 4)
    wider = unitary(3, -1, 5)
    assert any(ext == wider for ext in _consistent_extensions(wg, 1))


def shift_invariant_windows(p, lo, hi, support_bound):
    """Every shift-invariant interior table on [lo, hi], in search order."""
    reps = _free_reps(lo, hi)
    choice_lists = [_word_choices(p, i, j, support_bound) for i, j in reps]
    for assignment in itertools.product(*choice_lists):
        yield WindowGroup(p, lo, hi, _propagate(lo, hi, dict(zip(reps, assignment))))


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
    # the levelled boundary checks against a full overlap test of every
    # shift-invariant widening whose restriction to [0, hi] is the table
    tables = [WindowGroup.from_json_dict(item["table"]) for item in search_tables(p, 0, hi, 1)]
    assert tables
    widenings = {}
    for wider in shift_invariant_windows(p, -1, hi + 1, 1):
        inner = {(i, j): w for (i, j), w in wider.comm.items() if 0 <= i and j <= hi}
        widenings.setdefault(WindowGroup(p, 0, hi, inner), []).append(wider)
    for wg in tables:
        expected = {w for w in widenings.get(wg, []) if overlap_violation(w) is None}
        found = list(_consistent_extensions(wg, 1))
        assert len(found) == len(set(found))
        assert set(found) == expected, wg.comm

import json
import math
import random

import pytest

from zsys.analysis import nilpotency_class
from zsys.matgroup import LaurentMatrix, commutator, make_example
from zsys.zsystem import (
    CapExceeded,
    WindowGroup,
    closure,
    derive_window,
    overlap_violation,
    verify_zs_axioms,
)

from test_collect_oracle import closed_form_inv, closed_form_mul


def matrix_of(ex, wg, vec):
    m = LaurentMatrix.identity(ex.fp, ex.dim)
    for idx, e in zip(wg.indices(), vec):
        if e:
            m = m * ex.u(idx, e)
    return m


# -- derived tables ----------------------------------------------------------


def test_standard_window_is_abelian():
    for p in (2, 3, 5):
        wg = derive_window(make_example("standard", p), -3, 3)
        assert wg.comm == {}
        assert wg.is_abelian()


def test_unitary_window_0_2_p5():
    wg = derive_window(make_example("unitary", 5), 0, 2)
    assert wg.comm == {(0, 2): {1: 3}}


def test_unitary_window_0_4_p3():
    wg = derive_window(make_example("unitary", 3), 0, 4)
    assert (0, 4) not in wg.comm
    assert (1, 3) not in wg.comm
    assert wg.comm[(0, 2)] == {1: 1}
    assert wg.comm[(2, 4)] == {3: 1}


def test_derived_table_shift_invariant():
    wg = derive_window(make_example("unitary", 5), -4, 4)
    rep = verify_zs_axioms(wg, cap=10)  # cap too low for closure, overlaps still run
    assert rep["checks"]["ZS3"]["pass"]
    assert rep["checks"]["ZS5"]["pass"]


# -- collection --------------------------------------------------------------


def test_abelian_product():
    wg = derive_window(make_example("standard", 3), 0, 4)
    a = (1, 0, 0, 0, 0)
    b = (0, 1, 0, 0, 0)
    assert wg.mul_vec(a, b) == (1, 1, 0, 0, 0)


def test_collection_example_x2_x0():
    wg = derive_window(make_example("unitary", 3), 0, 2)
    assert wg.mul_vec((0, 0, 1), (1, 0, 0)) == (1, 1, 1)


def test_generator_power_is_identity():
    for tag, p in (("standard", 3), ("unitary", 5)):
        wg = derive_window(make_example(tag, p), 0, 3)
        for i in wg.indices():
            assert wg.pow_vec(wg.gen_vec(i), p) == wg.identity_vec


def test_inverse_and_power():
    wg = derive_window(make_example("unitary", 5), 0, 4)
    rng = random.Random(4)
    for _ in range(60):
        a = tuple(rng.randrange(5) for _ in range(5))
        inv = wg.inv_vec(a)
        assert wg.mul_vec(a, inv) == wg.identity_vec
        assert wg.mul_vec(inv, a) == wg.identity_vec
        assert wg.pow_vec(a, 5) == wg.identity_vec
        assert wg.pow_vec(a, -1) == inv
        assert wg.pow_vec(a, 3) == wg.mul_vec(wg.mul_vec(a, a), a)


def test_commutator_antisymmetry():
    wg = derive_window(make_example("unitary", 3), 0, 5)
    rng = random.Random(11)
    for _ in range(50):
        a = tuple(rng.randrange(3) for _ in range(6))
        b = tuple(rng.randrange(3) for _ in range(6))
        assert wg.mul_vec(wg.comm_vec(a, b), wg.comm_vec(b, a)) == wg.identity_vec


def test_generic_collection_agrees_with_fast_path():
    # derived windows are central, so the fold crosses them in one step;
    # the closed-form multiplication rule it replaced must agree
    wg = derive_window(make_example("unitary", 5), -2, 3)
    assert wg._central
    rng = random.Random(21)
    for _ in range(80):
        a = tuple(rng.randrange(5) for _ in range(6))
        b = tuple(rng.randrange(5) for _ in range(6))
        product, inverse = closed_form_mul(wg, a, b), closed_form_inv(wg, a)
        assert wg.mul_vec(a, b) == product
        assert wg.collect(wg._letters(a) + wg._letters(b)) == product
        assert wg.inv_vec(a) == inverse
        assert wg.collect([(idx, -e) for idx, e in reversed(wg._letters(a))]) == inverse


def test_noncentral_consistent_table_group_laws():
    # the nested class-3 tower is consistent but not central; hammer the
    # generic engine with group-law checks over its full element set
    wg = WindowGroup(3, 0, 4, {(0, 2): {1: 1}, (0, 4): {2: 1}, (2, 4): {3: 1}})
    assert not wg._central
    elements = sorted(map(tuple, closure(wg, [wg.gen_vec(i) for i in wg.indices()])))
    assert len(elements) == 243
    rng = random.Random(1234)
    for _ in range(300):
        a, b, c = (elements[rng.randrange(243)] for _ in range(3))
        assert wg.mul_vec(wg.mul_vec(a, b), c) == wg.mul_vec(a, wg.mul_vec(b, c))
    for v in elements:
        assert wg.mul_vec(v, wg.inv_vec(v)) == wg.identity_vec
        assert wg.pow_vec(v, 3 * 3) == wg.identity_vec  # exponent divides p^2


def test_collection_on_noncentral_table():
    # nested table: x_2 occurs in the word of (1, 4) while pair (0, 2) is
    # itself nonempty, so the table is not central and crossings are kept
    wg = WindowGroup(3, 0, 4, {(0, 2): {1: 1}, (1, 4): {2: 1}})
    assert not wg._central
    # x_4 x_1 = x_1 x_4 x_2 = x_1 x_2 x_4
    assert wg.mul_vec(wg.gen_vec(4), wg.gen_vec(1)) == (0, 1, 1, 0, 1)
    # both bracketings of x_4 x_1 x_1, worked by hand
    left = wg.mul_vec(wg.mul_vec(wg.gen_vec(4), wg.gen_vec(1)), wg.gen_vec(1))
    right = wg.mul_vec(wg.gen_vec(4), wg.mul_vec(wg.gen_vec(1), wg.gen_vec(1)))
    assert left == right == (0, 2, 2, 0, 1)
    assert wg.pow_vec(wg.gen_vec(0), 3) == wg.identity_vec


# -- stats and shift ---------------------------------------------------------


def test_nf_stats_identity():
    wg = derive_window(make_example("standard", 3), 0, 3)
    s = wg.stats_vec(wg.identity_vec)
    assert s.start == math.inf and s.end == -math.inf and s.width == 0


def test_nf_stats_examples():
    wg = derive_window(make_example("standard", 3), 0, 3)
    assert wg.stats_vec((1, 2, 0, 1)) == (0, 3, 4)
    assert wg.stats_vec((0, 2, 0, 0)) == (1, 1, 1)


def test_shift_examples():
    wg = derive_window(make_example("unitary", 3), 0, 4)
    assert wg.shift_vec(wg.gen_vec(0), 1) == wg.gen_vec(2)
    assert wg.shift_vec(wg.identity_vec, 2) == wg.identity_vec
    a = (0, 1, 2, 0, 0)
    assert wg.shift_vec(wg.shift_vec(a, 1), -1) == a


def test_shift_out_of_range_is_error():
    wg = derive_window(make_example("unitary", 3), 0, 4)
    with pytest.raises(ValueError):
        wg.shift_vec(wg.gen_vec(4), 1)
    with pytest.raises(ValueError):
        wg.shift_vec(wg.gen_vec(0), -1)


def test_shift_is_homomorphism_where_defined():
    wg = derive_window(make_example("unitary", 3), -4, 5)
    rng = random.Random(31)
    for _ in range(60):
        a = tuple(rng.randrange(3) if 2 <= i <= 7 else 0 for i in range(10))
        b = tuple(rng.randrange(3) if 2 <= i <= 7 else 0 for i in range(10))
        for k in (1, -1):
            shifted = wg.mul_vec(wg.shift_vec(a, k), wg.shift_vec(b, k))
            assert wg.shift_vec(wg.mul_vec(a, b), k) == shifted


# -- axiom verification ------------------------------------------------------


@pytest.mark.parametrize("tag,p,lo,hi", [
    ("unitary", 3, 0, 5),
    ("unitary", 5, -2, 2),
    ("standard", 3, -3, 3),
    ("standard", 2, 0, 4),
])
def test_axioms_pass_on_derived_windows(tag, p, lo, hi):
    wg = derive_window(make_example(tag, p), lo, hi)
    rep = verify_zs_axioms(wg)
    assert rep["pass"], rep
    assert rep["checks"]["ZS2/ZS6"]["method"] == "exhaustive"
    assert rep["checks"]["ZS2/ZS6"]["order"] == p ** (hi - lo + 1)


def test_axioms_beyond_cap_uses_associativity():
    wg = derive_window(make_example("unitary", 3), 0, 5)
    rep = verify_zs_axioms(wg, cap=100)
    assert rep["pass"]
    assert rep["checks"]["ZS2/ZS6"]["method"] == "associativity"


def test_zs5_failure_reported():
    wg = WindowGroup(3, 0, 2, {(0, 2): {0: 1}})
    rep = verify_zs_axioms(wg)
    assert not rep["pass"]
    assert not rep["checks"]["ZS5"]["pass"]
    assert rep["checks"]["ZS5"]["witness"] == {"pair": [0, 2], "index": 0}
    with pytest.raises(ValueError):
        wg.mul_vec(wg.gen_vec(2), wg.gen_vec(0))


def test_zs3_failure_reported():
    wg = WindowGroup(3, -2, 3, {(-2, 1): {0: 1}, (0, 3): {1: 1}})
    rep = verify_zs_axioms(wg)
    assert not rep["checks"]["ZS3"]["pass"]
    assert not rep["pass"]


def test_inconsistent_table_fails_zs2():
    # uniform one-step nesting is inconsistent at p = 2
    wg = WindowGroup(2, 0, 4, {(0, 2): {1: 1}, (1, 3): {2: 1}, (2, 4): {3: 1}})
    rep = verify_zs_axioms(wg)
    assert not rep["checks"]["ZS2/ZS6"]["pass"]
    assert overlap_violation(wg) is not None
    # the presentation may collapse, so the order of x_i is left undecided
    assert rep["checks"]["ZS4"] == {"pass": False, "skipped": "ZS2/ZS6 fails"}


def test_exhaustive_count_fails_only_through_the_collector(monkeypatch):
    # with the generators in index order the closure forms only x_k^m x_i,
    # i <= k: for i < k it lies in H x_k^m (H every vector below k), for
    # i = k it is the next representative, so the count is p^width by
    # construction, and ZS4 follows from it with no power formed
    wg = derive_window(make_example("unitary", 3), 0, 4)
    assert wg.overlap_witness is None  # decided before the patches
    mul, formed = WindowGroup.mul_vec, []

    def recording(self, a, b):
        formed.append((tuple(a), tuple(b), mul(self, a, b)))
        return formed[-1][2]

    def refuse(self, a, k):
        raise AssertionError("ZS4 formed a power")

    monkeypatch.setattr(WindowGroup, "mul_vec", recording)
    monkeypatch.setattr(WindowGroup, "pow_vec", refuse)
    rep = verify_zs_axioms(wg)
    assert rep["pass"] and rep["checks"]["ZS4"] == {"pass": True}
    assert rep["checks"]["ZS2/ZS6"]["order"] == 243
    assert len(formed) == (wg.p - 1) * wg.width * (wg.width + 1) // 2
    for a, b, ab in formed:
        (k,) = [c for c, e in enumerate(a) if e]
        (i,) = [c for c, e in enumerate(b) if e]
        assert i <= k and b[i] == 1
        expected_k = (a[k] + (i == k)) % wg.p
        assert ab[k] == expected_k and not any(ab[k + 1 :])
        assert i < k or not any(ab[:k])

    # a collector that leaves x_2 x_2 in the coset of x_2 ends x_2's
    # representatives early: the count comes out wrong, and ZS4 is skipped
    x2 = wg.gen_vec(2)

    def faulty(self, a, b):
        return tuple(a) if (tuple(a), tuple(b)) == (x2, x2) else mul(self, a, b)

    monkeypatch.setattr(WindowGroup, "mul_vec", faulty)
    rep = verify_zs_axioms(wg)
    assert rep["checks"]["ZS2/ZS6"] == {
        "expected": 243, "pass": False, "method": "exhaustive", "order": 162
    }
    assert rep["checks"]["ZS4"] == {"pass": False, "skipped": "ZS2/ZS6 fails"}
    assert not rep["pass"]


def test_generic_exhaustive_closure_on_noncentral_table():
    # a consistent class-3 table that is not central: x_5 is both a
    # commutator letter and a pair index, so every product of the 5^7-element
    # closure goes through generic collection
    wg = WindowGroup.from_json_dict(
        {"p": 5, "lo": 0, "hi": 6, "comm": {"0,5": {"1": 2}, "0,6": {"5": 1}}}
    )
    assert not wg._central
    entry = verify_zs_axioms(wg)["checks"]["ZS2/ZS6"]
    assert entry["pass"]
    assert entry["method"] == "exhaustive" and entry["order"] == 5**7
    assert nilpotency_class(wg) == 3


def test_closure_cap_raises():
    wg = derive_window(make_example("unitary", 3), 0, 5)
    with pytest.raises(CapExceeded):
        closure(wg, [wg.gen_vec(i) for i in wg.indices()], cap=50)


# -- oracle equivalence ------------------------------------------------------


@pytest.mark.parametrize("tag,p,lo,hi", [("unitary", 3, 0, 4), ("unitary", 5, -2, 2), ("standard", 5, -2, 3)])
def test_collection_matches_matrix_oracle(tag, p, lo, hi):
    ex = make_example(tag, p)
    wg = derive_window(ex, lo, hi)
    rng = random.Random(f"{tag}-{p}")
    width = hi - lo + 1
    for _ in range(120):
        a = tuple(rng.randrange(p) for _ in range(width))
        b = tuple(rng.randrange(p) for _ in range(width))
        ma, mb = matrix_of(ex, wg, a), matrix_of(ex, wg, b)
        assert wg.mul_vec(a, b) == ex.normal_form(ma * mb, lo, hi)
        assert wg.inv_vec(a) == ex.normal_form(ma.inv(), lo, hi)
        assert wg.comm_vec(a, b) == ex.normal_form(commutator(ma, mb), lo, hi)


# -- lemma-style invariants on a small window ---------------------------------


def test_cancellation_lemmas_small_window():
    wg = derive_window(make_example("unitary", 3), 0, 3)
    elements = sorted(map(tuple, closure(wg, [wg.gen_vec(i) for i in wg.indices()])))
    nonid = [v for v in elements if v != wg.identity_vec]
    p = wg.p
    # start index of a generator product
    for k in wg.indices():
        gk = wg.gen_vec(k)
        for v in nonid + [wg.identity_vec]:
            s = wg.stats_vec(v)
            if s.start == k:
                continue
            got = wg.stats_vec(wg.mul_vec(gk, v)).start
            assert got == min(k, s.start)
    # cancellation at matching start or end, and power shrinking
    for x in nonid:
        sx = wg.stats_vec(x)
        assert wg.stats_vec(wg.pow_vec(x, p)).width < sx.width
        for y in nonid:
            sy = wg.stats_vec(y)
            if sx.start == sy.start:
                assert any(
                    wg.stats_vec(w := wg.mul_vec(wg.pow_vec(y, lam), x)).start > sx.start
                    and wg.stats_vec(w).width < max(sx.width, sy.width)
                    for lam in range(1, p)
                )
            if sx.end == sy.end:
                assert any(
                    wg.stats_vec(w := wg.mul_vec(wg.pow_vec(y, lam), x)).end < sx.end
                    and wg.stats_vec(w).width < max(sx.width, sy.width)
                    for lam in range(1, p)
                )


# -- serialization ------------------------------------------------------------


def test_window_json_round_trip():
    wg = derive_window(make_example("unitary", 5), -2, 4)
    data = wg.to_json_dict()
    assert WindowGroup.from_json_dict(data) == wg
    assert WindowGroup.from_json_dict(json.loads(json.dumps(data))) == wg


def test_window_json_malformed():
    with pytest.raises(ValueError):
        WindowGroup.from_json_dict({"p": 3, "lo": 0})
    with pytest.raises(ValueError):
        WindowGroup.from_json_dict({"p": 3, "lo": 0, "hi": 2, "comm": {"0:2": {"1": 1}}})


def test_window_validation():
    with pytest.raises(ValueError):
        WindowGroup(4, 0, 2)  # not prime
    with pytest.raises(ValueError):
        WindowGroup(3, 2, 0)  # empty window
    with pytest.raises(ValueError):
        WindowGroup(3, 0, 2, {(0, 5): {1: 1}})  # pair outside window
    with pytest.raises(ValueError):
        WindowGroup(3, 0, 2, {(0, 2): {9: 1}})  # word support outside window

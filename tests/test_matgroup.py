import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_laurent import from_pairs

from zsys.laurent import Fp, LaurentPoly
from zsys.matgroup import (
    LaurentMatrix,
    StandardExample,
    UnitaryExample,
    commutator,
    conjugate,
    make_example,
)
from zsys.rootsystem import Root, alpha, negate


def to_lists(m):
    """The entries of a matrix as nested [exponent, coefficient] lists."""
    return [[e.to_pairs() for e in row] for row in m.rows]


def from_lists(fp, data):
    """The matrix whose entries are given as `to_lists` writes them."""
    return LaurentMatrix(fp, [[from_pairs(fp, e) for e in row] for row in data])


def sigma(ex):
    """The diagonal shift conjugator of a family: conjugation by it maps the
    index-n generator to index n + 2."""
    fp = ex.fp
    t_inv, t = LaurentPoly.monomial(fp, 1, -1), LaurentPoly.monomial(fp, 1, 1)
    if ex.dim == 2:
        return LaurentMatrix.diagonal(fp, [t_inv, t])
    return LaurentMatrix.diagonal(fp, [t_inv, LaurentPoly.one(fp), -t])


def upper_coords(m):
    """(a, b, c) with a = (1,2), b = (2,3), c = (1,3) entries of a 3x3 matrix."""
    return m.rows[0][1], m.rows[1][2], m.rows[0][2]


def expected_even_commutator(ex, n, m_idx, lam, mu):
    """Independent oracle for [x_n(lam), x_m(mu)] with n, m even: in the upper
    unitriangular group the commutator is central with corner entry
    a1*b2 - a2*b1, read off the generator entries directly."""
    a = ex.u(n, lam)
    b = ex.u(m_idx, mu)
    a1, a2, _ = upper_coords(a)
    b1, b2, _ = upper_coords(b)
    corner = a1 * b2 - a2 * b1
    fp = ex.fp
    one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
    return LaurentMatrix(fp, [[one, zero, corner], [zero, one, zero], [zero, zero, one]])


# -- construction and arithmetic --------------------------------------------


def test_standard_generator_at_zero():
    ex = StandardExample(3)
    m = ex.u(0, 1)
    assert m.rows[0][0].is_one() and m.rows[0][1].is_one()
    assert m.rows[1][0].is_zero() and m.rows[1][1].is_one()


def test_unitary_generators_frozen_f5():
    ex = UnitaryExample(5)
    x0 = ex.u(0, 1)
    assert to_lists(x0) == [
        [[[0, 1]], [[0, 4]], [[0, 2]]],
        [[], [[0, 1]], [[0, 1]]],
        [[], [], [[0, 1]]],
    ]
    x1 = ex.u(1, 1)
    assert to_lists(x1) == [
        [[[0, 1]], [], [[1, 1]]],
        [[], [[0, 1]], []],
        [[], [], [[0, 1]]],
    ]


def test_identity_inverse():
    fp = Fp(5)
    eye = LaurentMatrix.identity(fp, 2)
    assert eye.inv() == eye


def test_unipotent_inverse():
    ex = StandardExample(7)
    m = ex.u(4, 3)
    assert m.inv() == ex.u(4, 4)  # -3 = 4 mod 7


def test_mul_inv_round_trip():
    ex = StandardExample(5)
    a = ex.root_generator(Root(3, 1), 2)
    assert (a * a.inv()).is_identity()
    ex3 = UnitaryExample(5)
    b = ex3.u(2, 3) * ex3.u(-1, 4) * ex3.h(2)
    assert (b * b.inv()).is_identity()


def test_inverse_needs_unit_determinant():
    fp = Fp(5)
    one = LaurentPoly.one(fp)
    f = from_pairs(fp, [[0, 1], [1, 1]])
    zero = LaurentPoly.zero(fp)
    bad = LaurentMatrix(fp, [[f, zero], [zero, one]])
    with pytest.raises(ValueError):
        bad.inv()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        LaurentMatrix.identity(Fp(5), 2) * LaurentMatrix.identity(Fp(5), 3)


def test_determinants_of_generators():
    for p in (3, 5, 7):
        std, uni = StandardExample(p), UnitaryExample(p)
        for n in range(-3, 4):
            for lam in range(1, p):
                assert std.u(n, lam).det().is_one()
                assert uni.u(n, lam).det().is_one()
                assert std.root_generator(Root(n, -1), lam).det().is_one()
                assert uni.root_generator(Root(n, -1), lam).det().is_one()


def test_unitary_rejects_char_two():
    with pytest.raises(ValueError):
        UnitaryExample(2)
    with pytest.raises(ValueError):
        make_example("unitary", 2)


def test_h_rejects_zero():
    for ex in (StandardExample(3), UnitaryExample(3)):
        with pytest.raises(ValueError):
            ex.h(0)


def test_make_example():
    assert make_example("standard", 2).tag == "standard"
    with pytest.raises(ValueError):
        make_example("nonsense", 3)


# -- shift conjugation -------------------------------------------------------


@pytest.mark.parametrize("tag,p", [("standard", 3), ("standard", 5), ("unitary", 3), ("unitary", 5)])
def test_sigma_shifts_generators_by_two(tag, p):
    ex = make_example(tag, p)
    s = sigma(ex)
    si = s.inv()
    for n in range(-3, 4):
        for lam in range(1, p):
            assert si * ex.u(n, lam) * s == ex.u(n + 2, lam)


# -- commutation structure ---------------------------------------------------


def test_standard_positive_side_abelian():
    ex = StandardExample(5)
    assert commutator(ex.u(1, 1), ex.u(4, 1)).is_identity()
    for n, m in itertools.combinations(range(-3, 4), 2):
        assert commutator(ex.u(n, 2), ex.u(m, 3)).is_identity()


def test_unitary_base_relations_at_origin():
    # the base constants of the nontrivial relations at z = z' = 0
    for p in (3, 5, 7):
        ex = UnitaryExample(p)
        for lam in range(1, p):
            for mu in range(1, p):
                assert commutator(ex.u(0, lam), ex.u(2, mu)) == ex.u(1, 2 * lam * mu % p)
                assert commutator(ex.u(2, lam), ex.u(0, mu)) == ex.u(1, -2 * lam * mu % p)


def test_unitary_commutator_sign_alternates_with_result_index():
    # [x_n(lam), x_m(mu)] for n = 4z, m = 4z'+2 is x_k(s*2*lam*mu) with
    # k = (n+m)/2 and s = (-1)^((k-1)/2); forced by shift conjugation from the
    # base case, and checked against the independent corner-entry oracle.
    for p in (3, 5):
        ex = UnitaryExample(p)
        for z in range(-2, 3):
            for z2 in range(-2, 3):
                k = 2 * z + 2 * z2 + 1
                s = 1 if (z + z2) % 2 == 0 else -1
                for lam, mu in ((1, 1), (2, p - 1)):
                    c = commutator(ex.u(4 * z, lam), ex.u(4 * z2 + 2, mu))
                    assert c == ex.u(k, s * 2 * lam * mu % p)
                    assert c == expected_even_commutator(ex, 4 * z, 4 * z2 + 2, lam, mu)
                    c2 = commutator(ex.u(4 * z + 2, lam), ex.u(4 * z2, mu))
                    assert c2 == ex.u(k, -s * 2 * lam * mu % p)
                    assert c2 == expected_even_commutator(ex, 4 * z + 2, 4 * z2, lam, mu)


def test_unitary_commutator_x2_x4_forced_by_shift():
    # the distance-2 pair one shift up: [x_2, x_4] = sigma-conjugate of
    # [x_0, x_2] = x_1(2), hence x_3(2) (not x_3(-2))
    ex = UnitaryExample(5)
    c = commutator(ex.u(2, 1), ex.u(4, 1))
    assert c == ex.u(3, 2)
    s = sigma(ex)
    assert c == s.inv() * commutator(ex.u(0, 1), ex.u(2, 1)) * s


def test_unitary_trivial_relations():
    for p in (3, 5, 7):
        ex = UnitaryExample(p)
        for z in range(-2, 3):
            for z2 in range(-2, 3):
                assert commutator(ex.u(4 * z, 1), ex.u(4 * z2, 2)).is_identity()
                assert commutator(ex.u(4 * z + 2, 1), ex.u(4 * z2 + 2, 2)).is_identity()


def test_unitary_odd_generators_central():
    for p in (3, 5):
        ex = UnitaryExample(p)
        for z in range(-2, 3):
            for m in range(-4, 5):
                assert commutator(ex.u(2 * z + 1, 1), ex.u(m, 2)).is_identity()


def test_unitary_parameter_additive():
    ex = UnitaryExample(7)
    for n in (-3, -2, 0, 1, 4):
        for lam in range(7):
            for mu in range(7):
                assert ex.u(n, lam) * ex.u(n, mu) == ex.u(n, (lam + mu) % 7)


def test_commutator_antisymmetry():
    ex = UnitaryExample(5)
    a, b = ex.u(0, 2), ex.u(2, 3)
    assert (commutator(a, b) * commutator(b, a)).is_identity()


# -- normal form read-off ----------------------------------------------------


def test_standard_normal_form_example():
    ex = StandardExample(3)
    fp = ex.fp
    one = LaurentPoly.one(fp)
    f = from_pairs(fp, [[0, 1], [1, 2]])
    m = LaurentMatrix(fp, [[one, f], [LaurentPoly.zero(fp), one]])
    assert ex.normal_form(m, 0, 3) == (1, 2, 0, 0)


def test_unitary_normal_form_examples():
    ex5 = UnitaryExample(5)
    assert ex5.normal_form(ex5.u(0, 1) * ex5.u(1, 1), 0, 1) == (1, 1)
    ex3 = UnitaryExample(3)
    assert ex3.normal_form(ex3.u(2, 1) * ex3.u(0, 1), 0, 2) == (1, 1, 1)


def test_normal_form_round_trip_standard_exhaustive():
    ex = StandardExample(3)
    for vec in itertools.product(range(3), repeat=4):
        m = LaurentMatrix.identity(ex.fp, 2)
        for idx, e in zip(range(0, 4), vec):
            if e:
                m = m * ex.u(idx, e)
        assert ex.normal_form(m, 0, 3) == vec


def test_normal_form_round_trip_unitary_exhaustive():
    ex = UnitaryExample(3)
    for vec in itertools.product(range(3), repeat=3):
        m = LaurentMatrix.identity(ex.fp, 3)
        for idx, e in zip(range(0, 3), vec):
            if e:
                m = m * ex.u(idx, e)
        assert ex.normal_form(m, 0, 2) == vec


def test_normal_form_round_trip_unitary_random_window():
    rng = random.Random(99)
    ex = UnitaryExample(5)
    lo, hi = -2, 2
    for _ in range(150):
        vec = tuple(rng.randrange(5) for _ in range(hi - lo + 1))
        m = LaurentMatrix.identity(ex.fp, 3)
        for idx, e in zip(range(lo, hi + 1), vec):
            if e:
                m = m * ex.u(idx, e)
        assert ex.normal_form(m, lo, hi) == vec


def test_normal_form_support_escape():
    ex = StandardExample(5)
    with pytest.raises(ValueError):
        ex.normal_form(ex.u(4, 1), 0, 3)
    exu = UnitaryExample(5)
    with pytest.raises(ValueError):
        exu.normal_form(exu.u(3, 1), 0, 2)


def test_normal_form_rejects_wrong_shape():
    ex = StandardExample(5)
    with pytest.raises(ValueError):
        ex.normal_form(ex.root_generator(Root(0, -1), 1), -2, 2)
    exu = UnitaryExample(5)
    with pytest.raises(ValueError):
        exu.normal_form(exu.u(0, 1).transpose(), -2, 2)


def test_unitary_normal_form_consistency_check():
    # hand-corrupt the (2,3) entry so it no longer matches the (1,2) entry
    ex = UnitaryExample(5)
    m = ex.u(0, 1)
    rows = [list(r) for r in m.rows]
    rows[1][2] = from_pairs(ex.fp, [[0, 3]])
    bad = LaurentMatrix(ex.fp, rows)
    with pytest.raises(ValueError):
        ex.normal_form(bad, 0, 2)


def test_empty_window_normal_form():
    ex = StandardExample(3)
    assert ex.normal_form(LaurentMatrix.identity(ex.fp, 2), 1, 0) == ()
    with pytest.raises(ValueError):
        ex.normal_form(ex.u(0, 1), 1, 0)


def test_negative_side_normal_form():
    ex = StandardExample(5)
    m = ex.root_generator(Root(1, -1), 2) * ex.root_generator(Root(3, -1), 4)
    assert ex.normal_form_negative(m, 0, 3) == (0, 2, 0, 4)
    exu = UnitaryExample(5)
    mu_ = exu.root_generator(Root(1, -1), 2) * exu.root_generator(Root(2, -1), 1)
    assert exu.normal_form_negative(mu_, 1, 2) == (2, 1)


# -- pattern matching --------------------------------------------------------


def test_root_of_matches_generators():
    for tag, p in (("standard", 5), ("unitary", 5)):
        ex = make_example(tag, p)
        for z in range(-3, 4):
            for eps in (1, -1):
                for lam in range(1, p):
                    got = ex.root_of(ex.root_generator(Root(z, eps), lam))
                    assert got == (Root(z, eps), lam)


def test_root_of_rejects_non_generators():
    ex = StandardExample(5)
    assert ex.root_of(LaurentMatrix.identity(ex.fp, 2)) is None
    assert ex.root_of(ex.h(2)) is None
    exu = UnitaryExample(5)
    assert exu.root_of(exu.u(0, 1) * exu.u(1, 1)) is None


def test_families_refuse_each_others_matrices():
    std, uni = StandardExample(5), UnitaryExample(5)
    for ex, other in ((std, uni), (uni, std)):
        foreign = [other.root_generator(Root(z, eps), 2) for z in (0, 1) for eps in (1, -1)]
        foreign += [other.h(2), LaurentMatrix.identity(other.fp, other.dim)]
        for m in foreign:
            assert ex.in_torus(m) is False
            assert ex.root_of(m) is None
            for read in (ex.normal_form, ex.normal_form_negative):
                with pytest.raises(ValueError):
                    read(m, -2, 2)


def test_json_matrix_round_trip():
    ex = UnitaryExample(7)
    m = ex.u(-2, 3) * ex.u(1, 5)
    assert from_lists(ex.fp, to_lists(m)) == m


def test_matrix_product_associative_randomized():
    rng = random.Random(5150)
    ex = UnitaryExample(5)
    pool = [ex.u(n, lam) for n in range(-3, 4) for lam in (1, 2, 4)]
    pool += [ex.h(2), sigma(ex), ex.u(0, 1).transpose()]
    for _ in range(40):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- differential tests of the product and the inverse -----------------------


def schoolbook_mul(a, b):
    """The product by its definition: entry (i, j) is the sum over every k of
    a[i][k] * b[k][j], each polynomial product convolved term by term."""
    fp, n, p = a.fp, a.n, a.fp.p
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for za, ca in a.rows[i][k].terms.items():
                    for zb, cb in b.rows[k][j].terms.items():
                        acc[za + zb] = (acc.get(za + zb, 0) + ca * cb) % p
            row.append(LaurentPoly(fp, acc))
        rows.append(row)
    return LaurentMatrix(fp, rows)


@st.composite
def sparse_entries(draw, fp):
    """A Laurent polynomial with exponents in [-3, 3]: zero, the constant 1
    or a monomial, each a quarter of the time, else up to three terms; the
    product treats the first three apart."""
    kind = draw(st.sampled_from(("zero", "one", "monomial", "terms")))
    if kind == "zero":
        return LaurentPoly.zero(fp)
    if kind == "one":
        return LaurentPoly.one(fp)
    if kind == "monomial":
        return LaurentPoly.monomial(fp, draw(st.integers(1, fp.p - 1)), draw(st.integers(-3, 3)))
    terms = draw(st.dictionaries(st.integers(-3, 3), st.integers(1, fp.p - 1), max_size=3))
    return LaurentPoly(fp, terms)


@st.composite
def matrix_pairs(draw):
    """Two random sparse matrices of one size over one F_p, each with some
    whole rows and columns zero."""
    fp = Fp(draw(st.sampled_from((2, 3, 5, 7))))
    n = draw(st.sampled_from((2, 3)))
    zero = LaurentPoly.zero(fp)

    def matrix():
        blank_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
        blank_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
        return LaurentMatrix(fp, [
            [zero if i in blank_rows or j in blank_cols else draw(sparse_entries(fp))
             for j in range(n)]
            for i in range(n)
        ])

    return matrix(), matrix()


@st.composite
def invertible_matrices(draw):
    """u * l * d with u upper and l lower unitriangular with sparse entries
    and d diagonal with monomial entries, so the determinant is a unit."""
    fp = Fp(draw(st.sampled_from((2, 3, 5, 7))))
    n = draw(st.sampled_from((2, 3)))
    one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)

    def triangle(upper):
        return LaurentMatrix(fp, [
            [one if i == j else (draw(sparse_entries(fp)) if (i < j) == upper else zero)
             for j in range(n)]
            for i in range(n)
        ])

    units = [
        LaurentPoly.monomial(fp, draw(st.integers(1, fp.p - 1)), draw(st.integers(-2, 2)))
        for _ in range(n)
    ]
    return triangle(True) * triangle(False) * LaurentMatrix.diagonal(fp, units)


def stored_terms(m):
    """Every entry's term map, copied."""
    return [[dict(e.terms) for e in row] for row in m.rows]


@st.composite
def unitriangular_pairs(draw):
    """Two unitriangular matrices of one size over one F_p: both upper, both
    lower, or one of each, all of which the product takes row by row.  Each
    entry of b off the diagonal is drawn afresh or is the negation of a's
    entry in the same place (its mirror image when the orientations
    differ), so that sums of entries cancel to zero; in a 3x3 pair of one
    orientation the corner of b may also cancel the whole corner of a * b."""
    fp = Fp(draw(st.sampled_from((2, 3, 5, 7))))
    n = draw(st.sampled_from((2, 3)))
    upper_a, upper_b = draw(st.sampled_from(list(itertools.product((True, False), repeat=2))))
    one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)

    def off_diagonal(upper):
        return [(i, j) for i in range(n) for j in range(n) if (i < j if upper else i > j)]

    a = {ij: draw(sparse_entries(fp)) for ij in off_diagonal(upper_a)}
    b = {}
    for i, j in off_diagonal(upper_b):
        mirror = (i, j) if upper_a == upper_b else (j, i)
        b[i, j] = -a[mirror] if draw(st.booleans()) else draw(sparse_entries(fp))
    if n == 3 and upper_a == upper_b and draw(st.booleans()):
        if upper_a:
            b[0, 2] = -(a[0, 2] + a[0, 1] * b[1, 2])
        else:
            b[2, 0] = -(a[2, 0] + a[2, 1] * b[1, 0])

    def matrix(entries):
        return LaurentMatrix(fp, [
            [one if i == j else entries.get((i, j), zero) for j in range(n)] for i in range(n)
        ])

    return matrix(a), matrix(b)


def check_products(a, b):
    """a * b, b * a, ab * ab and the chain ab * a * ab * b equal their
    schoolbook products, no product changes a term map it was given, and no
    product stores a zero coefficient (so every zero entry has no terms)."""
    before = stored_terms(a), stored_terms(b)
    ab, ba = a * b, b * a
    assert ab == schoolbook_mul(a, b)
    assert ba == schoolbook_mul(b, a)
    # a product by a unit entry, or a sum with a zero summand, shares the
    # other entry's term map, so no later product may add into it
    product_terms = stored_terms(ab)
    square = ab * ab
    assert square == schoolbook_mul(ab, ab)
    chain = ab * a * ab * b
    assert chain == schoolbook_mul(schoolbook_mul(schoolbook_mul(ab, a), ab), b)
    assert (stored_terms(a), stored_terms(b)) == before
    assert stored_terms(ab) == product_terms
    for m in (ab, ba, square, chain):
        check_stored(m)


def check_stored(m):
    """No entry of m stores a zero coefficient, and the shape m keeps is the
    one a fresh copy of its rows computes: a product of lower factors that
    is the identity counts as upper."""
    for row in m.rows:
        for e in row:
            assert all(0 < c < m.fp.p for c in e.terms.values())
    assert m._unitriangular() == LaurentMatrix(m.fp, m.rows)._unitriangular()


def schoolbook_commutator(a, b):
    """[a, b] = a^-1 b^-1 a b from the adjugate inverses by schoolbook
    products, which the commutator's closed form does not use."""
    return schoolbook_mul(schoolbook_mul(schoolbook_mul(a.inv(), b.inv()), a), b)


def check_commutator(a, b):
    """[a, b] equals its schoolbook product, keeps no zero coefficient and
    the shape it computes, and changes no term map of a or b."""
    before = stored_terms(a), stored_terms(b)
    c = commutator(a, b)
    assert (stored_terms(a), stored_terms(b)) == before
    assert c == schoolbook_commutator(a, b)
    check_stored(c)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pair=matrix_pairs())
def test_product_matches_schoolbook(pair):
    check_products(*pair)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pair=unitriangular_pairs())
def test_unitriangular_product_matches_schoolbook(pair):
    # the row-by-row product on the factors of every root-group product,
    # with entries that cancel to zero
    check_products(*pair)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pair=unitriangular_pairs())
def test_unitriangular_commutator_matches_schoolbook(pair):
    # pairs of one orientation take the closed form, mixed ones the inverses
    # and products; b's entries that negate a's make the corner cancel
    a, b = pair
    check_commutator(a, b)
    check_commutator(b, a)


@pytest.mark.parametrize("tag", ["standard", "unitary"])
def test_generator_commutators_match_schoolbook(tag):
    # every pair of root-group generators over [-2, 2], of either sign and
    # any parameter, at p = 3, 5 and 7
    for p in (3, 5, 7):
        ex = make_example(tag, p)
        gens = [
            ex.root_generator(Root(z, eps), lam)
            for z in range(-2, 3) for eps in (1, -1) for lam in range(1, p)
        ]
        for g, h in itertools.product(gens, repeat=2):
            check_commutator(g, h)


def test_commutator_refuses_mixed_moduli_and_sizes():
    # factors of one shape over different moduli or of different sizes raise
    # as their product does, rather than take the closed form
    with pytest.raises(ValueError, match="mixed moduli"):
        commutator(UnitaryExample(3).u(0, 1), UnitaryExample(5).u(2, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(StandardExample(5).u(0, 1), UnitaryExample(5).u(2, 1))


@pytest.mark.parametrize("tag", ["standard", "unitary"])
def test_identity_of_lower_factors_reads_off(tag):
    # a product or commutator of lower factors that is the identity is upper,
    # so the positive read-off takes it, and the negative one takes it too;
    # a commutator is formed with its shape known
    ex = make_example(tag, 5)
    low = ex.root_generator(Root(2, -1), 1)
    commutators = [commutator(low, low), commutator(low, low.inv())]
    assert all(c._shape is not None for c in commutators)
    for m in [low * low.inv(), *commutators]:
        assert m.is_identity()
        assert ex.normal_form(m, 0, 4) == (0,) * 5
        assert ex.normal_form_negative(m, 0, 4) == (0,) * 5


@settings(derandomize=True, deadline=None, max_examples=200)
@given(m=invertible_matrices())
def test_inverse_is_computed_once_and_linked(m):
    inverse = m.inv()
    assert m.inv() is inverse
    assert inverse.inv() is m
    assert (m * inverse).is_identity() and (inverse * m).is_identity()
    assert schoolbook_mul(m, inverse) == LaurentMatrix.identity(m.fp, m.n)
    # an equal matrix built afresh computes the same inverse
    assert LaurentMatrix(m.fp, m.rows).inv() == inverse


def test_non_unit_determinant_raises_on_every_call():
    fp = Fp(5)
    one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
    f = from_pairs(fp, [[0, 1], [1, 1]])
    for bad in (
        LaurentMatrix(fp, [[f, zero], [zero, one]]),
        LaurentMatrix(fp, [[one, f, zero], [zero, f, zero], [zero, zero, one]]),
    ):
        for _ in range(3):
            with pytest.raises(ValueError, match="not a unit"):
                bad.inv()


@pytest.mark.parametrize("p", [5, 7])
def test_unitary_even_generator_inverse(p):
    # normal_form divides the even part off m by multiplying m on the left
    # by u(n, -e) for ascending n, which rests on this identity
    ex = UnitaryExample(p)
    identity = LaurentMatrix.identity(ex.fp, 3)
    for n in range(-8, 9, 2):
        for a in range(p):
            assert ex.u(n, a) * ex.u(n, -a) == identity
            assert ex.u(n, a).inv() == ex.u(n, -a)


def monomial_matrix(fp, n, rng):
    """A drawn monomial matrix: a random permutation of the columns, and in
    each row one random unit c*t^z with c in 1..p-1 and z in [-3, 3]."""
    zero = LaurentPoly.zero(fp)
    perm = rng.sample(range(n), n)
    rows = [[zero] * n for _ in range(n)]
    for k, j in enumerate(perm):
        rows[k][j] = LaurentPoly.monomial(fp, rng.randrange(1, fp.p), rng.randint(-3, 3))
    return LaurentMatrix(fp, rows)


def conjugators(ex, rng):
    """Every torus element of the family, for the standard family every
    reflection element m(i, lam) = v u v and its inverse, and eight drawn
    monomial matrices of the family's size."""
    p, fp = ex.p, ex.fp
    out = [ex.h(lam) for lam in range(1, p)]
    if ex.tag == "standard":
        for i, lam in itertools.product((0, 1), range(1, p)):
            v = ex.root_generator(negate(alpha(i)), (-fp.inv(lam)) % p)
            m = v * ex.root_generator(alpha(i), lam) * v
            out += [m, LaurentMatrix(fp, m.rows).inv()]
    return out + [monomial_matrix(fp, ex.dim, rng) for _ in range(8)]


@pytest.mark.parametrize(
    "tag, p", [("standard", 2), ("standard", 3), ("standard", 5), ("standard", 7),
               ("unitary", 3), ("unitary", 5), ("unitary", 7)]
)
def test_conjugate_matches_products(tag, p):
    # a^b in closed form against b^-1 a b formed by the row-by-row product
    # and by schoolbook products, for every root-group generator on [-3, 3]
    # and every monomial conjugator; no term map of a changes, not even
    # after its conjugate is multiplied and conjugated again
    ex = make_example(tag, p)
    rng = random.Random(p)
    gens = [
        ex.root_generator(Root(z, eps), lam)
        for z in range(-3, 4) for eps in (1, -1) for lam in range(1, p)
    ]
    for b in conjugators(ex, rng):
        b_inv = LaurentMatrix(b.fp, b.rows).inv()
        for a in gens:
            before = stored_terms(a)
            c = conjugate(a, b)
            assert c == b_inv * a * b
            assert c == schoolbook_mul(schoolbook_mul(b_inv, a), b)
            check_stored(c)
            assert c * c == schoolbook_mul(c, c)
            assert conjugate(c, b) == b_inv * c * b
            assert stored_terms(a) == before


def test_conjugate_by_identity_shares_entries():
    # a shift of 0 and a scale of 1 leave every entry a's own
    a = UnitaryExample(5).u(2, 3)
    c = conjugate(a, LaurentMatrix.identity(a.fp, 3))
    assert c == a
    assert all(x is y for row, row_c in zip(a.rows, c.rows) for x, y in zip(row, row_c))


def test_conjugate_refuses_non_monomial_conjugators():
    fp = Fp(5)
    one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
    t = LaurentPoly.monomial(fp, 2, 1)
    f = from_pairs(fp, [[0, 1], [1, 1]])
    a = StandardExample(5).u(1, 2)
    for b in (
        StandardExample(5).u(0, 1),  # two nonzero entries in a row
        LaurentMatrix(fp, [[f, zero], [zero, one]]),  # an entry of two terms
        LaurentMatrix(fp, [[t, zero], [one, zero]]),  # two rows in one column
        LaurentMatrix(fp, [[zero, zero], [zero, one]]),  # a zero row
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match="not monomial"):
                conjugate(a, b)
    with pytest.raises(ValueError, match="mixed moduli"):
        conjugate(a, StandardExample(7).h(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        conjugate(a, UnitaryExample(5).h(2))

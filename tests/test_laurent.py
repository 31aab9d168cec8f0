import random

import pytest

from zsys.laurent import MILLER_RABIN_LIMIT, Fp, LaurentPoly, is_prime


def from_pairs(fp, pairs):
    """The polynomial given in the interchange form of `to_pairs`, a list of
    [exponent, coefficient]."""
    return LaurentPoly(fp, [(int(z), int(c)) for z, c in pairs])


def poly(p, pairs):
    return from_pairs(Fp(p), pairs)


def rand_poly(fp, rng, spread=6, terms=4):
    return LaurentPoly(
        fp, [(rng.randrange(-spread, spread + 1), rng.randrange(fp.p)) for _ in range(terms)]
    )


def test_fp_requires_prime():
    Fp(2), Fp(7919)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            Fp(bad)


def trial_division(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n) != trial_division(n)] == []


def test_is_prime_large():
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**13 - 1) * (2**61 - 1))
    # strong pseudoprime to every base up to 37, composite: base 41 decides it
    assert not is_prime(399165290221 * 798330580441)
    # the least strong pseudoprime to every base up to 41 is where the test
    # stops being exact, so it and everything above it is refused
    for n in (MILLER_RABIN_LIMIT, 10**30):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)


def test_fp_inverse():
    fp = Fp(7)
    for a in range(1, 7):
        assert (a * fp.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        fp.inv(0)


def test_exponent_cancellation():
    assert poly(5, [[-2, 1]]) * poly(5, [[2, 1]]) == poly(5, [[0, 1]])


def test_binomial_square_mod_3():
    f = poly(3, [[0, 1], [1, 1]])
    assert (f * f).to_pairs() == [[0, 1], [1, 2], [2, 1]]


def test_additive_identity():
    fp = Fp(5)
    f = poly(5, [[-1, 2], [0, 1], [3, 4]])
    assert f + LaurentPoly.zero(fp) == f


def test_unit_inverse_examples():
    # 2 * 3 = 1 mod 5
    assert poly(5, [[3, 2]]).unit_inverse() == poly(5, [[-3, 3]])
    one = poly(5, [[0, 1]])
    assert one.unit_inverse() == one
    with pytest.raises(ValueError):
        poly(5, [[0, 1], [1, 1]]).unit_inverse()
    with pytest.raises(ValueError):
        LaurentPoly.zero(Fp(5)).unit_inverse()


def test_unit_inverse_product_is_one():
    fp = Fp(7)
    for z in range(-4, 5):
        for c in range(1, 7):
            m = LaurentPoly.monomial(fp, c, z)
            assert (m.unit_inverse() * m).is_one()


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for p in (2, 3, 5, 7):
        fp = Fp(p)
        for _ in range(40):
            a, b, c = (rand_poly(fp, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a - a == LaurentPoly.zero(fp)


def test_normalization_idempotent():
    rng = random.Random(7)
    fp = Fp(3)
    for _ in range(25):
        f = rand_poly(fp, rng)
        again = LaurentPoly(fp, dict(f.terms))
        assert again == f and again.terms == f.terms
        assert all(c for c in f.terms.values())


def test_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        poly(3, [[0, 1]]) + poly(5, [[0, 1]])
    with pytest.raises(ValueError):
        poly(3, [[0, 1]]) * poly(5, [[0, 1]])


def test_pairs_round_trip_sorted():
    f = poly(7, [[3, 2], [-1, 6], [0, 5]])
    assert f.to_pairs() == [[-1, 6], [0, 5], [3, 2]]
    assert from_pairs(Fp(7), f.to_pairs()) == f


def test_subs_neg_t():
    f = poly(5, [[0, 1], [1, 2], [2, 3], [-1, 4]])
    g = f.subs_neg_t()
    assert g.coeff(0) == 1 and g.coeff(2) == 3
    assert g.coeff(1) == 3 and g.coeff(-1) == 1


def test_str_forms():
    assert str(LaurentPoly.zero(Fp(3))) == "0"
    assert str(poly(3, [[-1, 2], [0, 1]])) == "2*t^-1 + 1"
    assert str(poly(3, [[1, 1]])) == "t"

"""Exact sparse arithmetic in F_p[t, t^-1]: Laurent polynomials over a prime field.

A polynomial is an immutable map from integer exponents to nonzero residues
mod p.  The modulus lives in a shared Fp context object rather than in every
coefficient; mixing values from contexts with different p is an error.
"""

from __future__ import annotations


# the first thirteen primes; Miller-Rabin to all of them as bases decides
# primality exactly below MILLER_RABIN_LIMIT, the least strong pseudoprime to
# them all (Sorenson and Webster, Math. Comp. 86, 2017).  The first twelve
# alone let 318665857834031151167461 = 399165290221 * 798330580441 through.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; a modulus at or above
    MILLER_RABIN_LIMIT, which these bases do not decide, raises ValueError."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"modulus {n} is too large to test for primality exactly")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Prime-field context.  Scalars are plain ints in {0, ..., p-1}."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"Fp({self.p})"


def mul_terms(a: dict, b: dict, p: int) -> dict:
    """Convolve two normalized term maps, returning a normalized term map."""
    out: dict = {}
    for za, ca in a.items():
        for zb, cb in b.items():
            z = za + zb
            out[z] = out.get(z, 0) + ca * cb
    return {z: c % p for z, c in out.items() if c % p}


class LaurentPoly:
    """Sparse Laurent polynomial; zero coefficients are never stored."""

    __slots__ = ("fp", "terms", "_hash")

    def __init__(self, fp: Fp, terms=()):
        self.fp = fp
        p = fp.p
        items = terms.items() if isinstance(terms, dict) else terms
        norm = {}
        for z, c in items:
            c = (norm.get(z, 0) + c) % p
            if c:
                norm[z] = c
            elif z in norm:
                del norm[z]
        self.terms = norm
        self._hash = None

    @classmethod
    def _reduced(cls, fp: Fp, terms: dict) -> "LaurentPoly":
        """Wrap a term map whose coefficients are already reduced mod p and
        nonzero, without copying or renormalizing it; the caller hands the map
        over and keeps no reference to it."""
        poly = object.__new__(cls)
        poly.fp = fp
        poly.terms = terms
        poly._hash = None
        return poly

    @classmethod
    def zero(cls, fp: Fp) -> "LaurentPoly":
        return cls(fp)

    @classmethod
    def one(cls, fp: Fp) -> "LaurentPoly":
        return cls(fp, {0: 1})

    @classmethod
    def const(cls, fp: Fp, c: int) -> "LaurentPoly":
        return cls(fp, {0: c})

    @classmethod
    def monomial(cls, fp: Fp, c: int, z: int) -> "LaurentPoly":
        return cls(fp, {z: c})

    def to_pairs(self) -> list:
        """Interchange form: [exponent, coefficient] pairs sorted by exponent."""
        return [[z, self.terms[z]] for z in sorted(self.terms)]

    def _same(self, other: "LaurentPoly"):
        if self.fp is not other.fp and self.fp != other.fp:
            raise ValueError(f"mixed moduli: {self.fp} vs {other.fp}")

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        p = self.fp.p
        for z, c in other.terms.items():
            c = (out.get(z, 0) + c) % p
            if c:
                out[z] = c
            elif z in out:
                del out[z]
        return LaurentPoly(self.fp, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = self.fp.p
        return LaurentPoly(self.fp, {z: p - c for z, c in self.terms.items()})

    def __mul__(self, other):
        self._same(other)
        return LaurentPoly(self.fp, mul_terms(self.terms, other.terms, self.fp.p))

    def subs_neg_t(self) -> "LaurentPoly":
        """Substitute t -> -t, i.e. negate odd-exponent coefficients."""
        p = self.fp.p
        return LaurentPoly(
            self.fp, {z: (c if z % 2 == 0 else p - c) for z, c in self.terms.items()}
        )

    def coeff(self, z: int) -> int:
        return self.terms.get(z, 0)

    def support(self) -> tuple:
        return tuple(sorted(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def unit_inverse(self) -> "LaurentPoly":
        """Invert a unit of F_p[t, t^-1]; units are exactly the monomials c*t^z."""
        if not self.is_monomial():
            raise ValueError(f"not a unit in the Laurent ring: {self}")
        ((z, c),) = self.terms.items()
        return LaurentPoly(self.fp, {-z: self.fp.inv(c)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and (self.fp is other.fp or self.fp == other.fp)
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.fp.p, tuple(sorted(self.terms.items()))))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for z in sorted(self.terms):
            c = self.terms[z]
            if z == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                exp = "t" if z == 1 else f"t^{z}"
                bits.append(head + exp)
        return " + ".join(bits)

    def __repr__(self):
        return f"LaurentPoly({self.fp.p}, {self.to_pairs()})"

"""Exact determinant-1 matrices over F_p[t, t^-1] and the two example root-group
families realized by them.

The standard family lives in SL_2 and is abelian on the positive side; the
unitary family lives in SL_3 (p odd), has central odd-index generators, and
noncommuting even-index generators whose commutators land on the odd index
halfway between.  Each root-group generator is unitriangular, upper on the
positive side and lower on the negative one.  Commutator convention
throughout: [a, b] = a^-1 b^-1 a b, and conjugation a^b = b^-1 a b.

Conjugation by a monomial matrix (one monomial entry per row and column,
as the torus and reflection elements are) is a shift and scale of the
entries, formed by `conjugate` in closed form.  With it the RGD checks
form 144 matrix products per benchmark `rgd` pass, all of them reflection
builds and torus quotients, and no conjugation product.
"""

from __future__ import annotations

import weakref

from .laurent import Fp, LaurentPoly, mul_terms
from .rootsystem import Root, check_root


# the values of LaurentMatrix._shape once it is known: unitriangular, upper
# or lower (the identity counts as upper), or neither
_UPPER, _LOWER, _NEITHER = 1, 2, 0


def _det2(fp: Fp, w: LaurentPoly, x: LaurentPoly, y: LaurentPoly, z: LaurentPoly,
          zero: LaurentPoly) -> LaurentPoly:
    """w * x - y * z over fp, with one `mul_terms` call per product whose
    factors are both nonzero; a zero result is `zero`."""
    p = fp.p
    terms = mul_terms(w.terms, x.terms, p) if w.terms and x.terms else {}
    if y.terms and z.terms:
        for e, c in mul_terms(y.terms, z.terms, p).items():
            c = (terms.get(e, 0) - c) % p
            if c:
                terms[e] = c
            else:
                del terms[e]
    return LaurentPoly._reduced(fp, terms) if terms else zero


def _shaped(fp: Fp, rows: tuple, shape: int) -> "LaurentMatrix":
    """Wrap the rows of a commutator formed in closed form, a unitriangular
    matrix of the given shape, with that shape known; a lower one that is
    the identity is upper, as `LaurentMatrix._unitriangular` has it."""
    if shape == _LOWER and not any(rows[i][j].terms for i in range(len(rows)) for j in range(i)):
        shape = _UPPER
    m = LaurentMatrix._trusted(fp, rows)
    m._shape = shape
    return m


class LaurentMatrix:
    """Square matrix (2x2 or 3x3) over LaurentPoly with determinant 1.

    A matrix is immutable, so it keeps its inverse once computed, its
    shape (upper unitriangular, lower unitriangular or neither) once
    `_unitriangular` has computed it or `commutator` has formed the matrix
    with it, and, for a monomial matrix, its `_conjugation` plan once it
    has conjugated.  An inverse refers back to its matrix only weakly, so
    the two form no reference cycle."""

    __slots__ = ("fp", "n", "rows", "_hash", "_inv", "_shape", "_conj", "__weakref__")

    def __init__(self, fp: Fp, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n not in (2, 3) or any(len(r) != n for r in rows):
            raise ValueError(f"expected a square 2x2 or 3x3 matrix, got rows {rows!r}")
        for row in rows:
            for e in row:
                if not isinstance(e, LaurentPoly) or e.fp != fp:
                    raise ValueError("matrix entries must be LaurentPoly over the same Fp")
        self.fp = fp
        self.n = n
        self.rows = rows
        self._hash = None
        self._inv = None
        self._shape = None
        self._conj = None

    @classmethod
    def _trusted(cls, fp: Fp, rows: tuple) -> "LaurentMatrix":
        """Wrap rows built by this module: a square tuple of row tuples of
        LaurentPoly over fp, which the public constructor would accept."""
        m = object.__new__(cls)
        m.fp = fp
        m.n = len(rows)
        m.rows = rows
        m._hash = None
        m._inv = None
        m._shape = None
        m._conj = None
        return m

    @classmethod
    def identity(cls, fp: Fp, n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
        return cls(fp, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, fp: Fp, entries) -> "LaurentMatrix":
        zero = LaurentPoly.zero(fp)
        n = len(entries)
        return cls(fp, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def _unitriangular(self) -> int:
        """`_shape`, computed on the first call: _UPPER when the diagonal is
        all 1 and every entry below it is zero, else _LOWER when every entry
        above it is, else _NEITHER."""
        shape = self._shape
        if shape is None:
            r = self.rows
            n = self.n
            shape = _NEITHER
            if all(r[i][i].terms == {0: 1} for i in range(n)):
                if not any(r[i][j].terms for i in range(n) for j in range(i)):
                    shape = _UPPER
                elif not any(r[j][i].terms for i in range(n) for j in range(i)):
                    shape = _LOWER
            self._shape = shape
        return shape

    def _conjugation(self) -> tuple:
        """The plan of `conjugate` by this monomial matrix, computed on the
        first call and kept: for each entry (k, l) of the conjugated matrix,
        its place (pi(k), pi(l)), shift z_l - z_k and scale c_l / c_k mod p.
        A matrix that is not monomial raises ValueError on every call."""
        plan = self._conj
        if plan is None:
            places = []
            for row in self.rows:
                entries = [(j, e.terms) for j, e in enumerate(row) if e.terms]
                if len(entries) != 1 or len(entries[0][1]) != 1:
                    raise ValueError(f"conjugator is not monomial: {self}")
                ((j, terms),) = entries
                ((z, c),) = terms.items()
                places.append((j, z, c))
            if len({j for j, _, _ in places}) != self.n:
                raise ValueError(f"conjugator is not monomial: {self}")
            inv = self.fp.inv
            plan = self._conj = tuple(
                tuple((i, j, zl - zk, cl * inv(ck) % self.fp.p) for j, zl, cl in places)
                for i, zk, ck in places
            )
        return plan

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """The product, row by row over the nonzero entries of both
        factors; the entries of the generators are mostly 0, 1 or a
        monomial.  Row i of the product is the sum over k of a[i][k]
        times row k of b.  A term a[i][k] * b[k][j] with a factor 1 is the
        other factor's term map itself, shared rather than copied; with a
        monomial factor it is the other factor shifted and scaled; only two
        entries of several terms each are convolved by mul_terms.  The first
        term of a sum is copied before the others are added to it, so that
        no shared map changes, and the sum is reduced once at the end, so a
        product by the identity shares every term map of the other factor.
        Every zero entry of the product is one shared zero polynomial."""
        if self.fp is not other.fp and self.fp != other.fp:
            raise ValueError(f"mixed moduli: {self.fp} vs {other.fp}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        fp = self.fp
        p = fp.p
        n = self.n
        nonzero = [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in other.rows]
        zero = LaurentPoly._reduced(fp, {})
        out = []
        for row in self.rows:
            acc = [None] * n
            summed = [False] * n
            for x, targets in zip(row, nonzero):
                x = x.terms
                if not x or not targets:
                    continue
                unit = mono = False
                if len(x) == 1:
                    ((zx, cx),) = x.items()
                    unit = zx == 0 and cx == 1
                    mono = not unit
                for j, y in targets:
                    if unit:
                        part = y
                    elif mono:
                        part = {zx + z: cx * c % p for z, c in y.items()}
                    elif len(y) == 1:
                        ((zy, cy),) = y.items()
                        if zy == 0 and cy == 1:
                            part = x
                        else:
                            part = {z + zy: c * cy % p for z, c in x.items()}
                    else:
                        part = mul_terms(x, y, p)
                    terms = acc[j]
                    if terms is None:
                        acc[j] = part
                        continue
                    if not summed[j]:
                        terms = acc[j] = dict(terms)
                        summed[j] = True
                    for z, c in part.items():
                        terms[z] = terms.get(z, 0) + c
            out_row = []
            for terms, reduce in zip(acc, summed):
                if reduce:
                    terms = {z: r for z, c in terms.items() if (r := c % p)}
                out_row.append(LaurentPoly._reduced(fp, terms) if terms else zero)
            out.append(tuple(out_row))
        return LaurentMatrix._trusted(fp, tuple(out))

    def det(self) -> LaurentPoly:
        r = self.rows
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def inv(self) -> "LaurentMatrix":
        """Inverse via the adjugate, computed on the first call and kept; the
        inverse keeps a weak reference to this matrix, and returns it as its
        own inverse while it lives.  For determinant 1 (all group elements)
        this is division free; any other unit determinant (a monomial c*t^z)
        is scaled out exactly.  A determinant that is not a unit raises
        ValueError on every call."""
        inverse = self._inv
        if inverse.__class__ is weakref.ref:
            inverse = inverse()
        if inverse is not None:
            return inverse
        det = self.det()
        if det.is_one():
            unit = None
        elif det.is_monomial():
            unit = det.unit_inverse()
        else:
            raise ValueError(f"determinant is not a unit: {det}")
        r = self.rows
        if self.n == 2:
            adj = [[r[1][1], -r[0][1]], [-r[1][0], r[0][0]]]
        else:
            cof = [
                [
                    r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
                    - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3]
                    for j in range(3)
                ]
                for i in range(3)
            ]
            adj = [[cof[j][i] for j in range(3)] for i in range(3)]
        if unit is not None:
            adj = [[e * unit for e in row] for row in adj]
        inverse = LaurentMatrix._trusted(self.fp, tuple(map(tuple, adj)))
        inverse._inv = weakref.ref(self)
        self._inv = inverse
        return inverse

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix._trusted(self.fp, tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if (e.is_one() if i == j else e.is_zero()) is False:
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and (self.fp is other.fp or self.fp == other.fp)
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.fp.p, self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]"


def commutator(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """[a, b] = a^-1 b^-1 a b.

    Two unitriangular factors of one shape (`_unitriangular`) commute in
    closed form, with no inverse and no product formed.  In 2x2 they commute.
    In 3x3, the Heisenberg group, the commutator of two upper factors is the
    identity plus the corner c13 = a12 * b23 - a23 * b12; that of two lower
    factors is the identity plus c31 = b21 * a32 - a21 * b32, since
    [L1, L2]^T = [U2^-1, U1^-1] for U = L^T.  The diagonal 1 and the zeros are
    a's own entries, and the result knows its shape.  Every other pair, and a
    pair of mixed moduli or sizes, which then raises, goes through the
    inverses and products."""
    shape = a._unitriangular()
    if shape and a.n == b.n and (a.fp is b.fp or a.fp == b.fp) and shape == b._unitriangular():
        fp, x, y = a.fp, a.rows, b.rows
        one = x[0][0]
        zero = x[1][0] if shape == _UPPER else x[0][1]
        if a.n == 2:
            return _shaped(fp, ((one, zero), (zero, one)), _UPPER)
        if shape == _UPPER:
            corner = _det2(fp, x[0][1], y[1][2], x[1][2], y[0][1], zero)
            rows = ((one, zero, corner), (zero, one, zero), (zero, zero, one))
        else:
            corner = _det2(fp, y[1][0], x[2][1], x[1][0], y[2][1], zero)
            rows = ((one, zero, zero), (zero, one, zero), (corner, zero, one))
        return _shaped(fp, rows, shape)
    return a.inv() * b.inv() * a * b


def conjugate(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """a^b = b^-1 a b for a monomial b, in closed form.

    A monomial b has one nonzero entry per row, a monomial c_k t^(z_k) in
    column pi(k), with pi a permutation: b = D P for D = diag(c_k t^(z_k))
    and P the permutation matrix of pi.  So entry (pi(k), pi(l)) of a^b is
    a[k][l] * t^(z_l - z_k) * c_l / c_k: each nonzero entry of a is shifted
    and scaled once, as b's `_conjugation` plan says, with no inverse of b
    and no product formed.  An entry whose shift is 0 and whose scale is 1
    is a's own entry, shared and never changed.  Every conjugator of the
    RGD checks is monomial: the torus elements, and the reflection elements
    and their inverses.  A b that is not monomial, and a pair of mixed
    moduli or sizes, raise ValueError."""
    if a.fp is not b.fp and a.fp != b.fp:
        raise ValueError(f"mixed moduli: {a.fp} vs {b.fp}")
    n = a.n
    if n != b.n:
        raise ValueError(f"dimension mismatch: {n} vs {b.n}")
    fp = a.fp
    p = fp.p
    out = [[None] * n for _ in range(n)]
    for row, places in zip(a.rows, b._conjugation()):
        for e, (i, j, s, f) in zip(row, places):
            terms = e.terms
            if terms and (s or f != 1):
                e = LaurentPoly._reduced(fp, {z + s: c * f % p for z, c in terms.items()})
            out[i][j] = e
    return LaurentMatrix._trusted(fp, tuple(map(tuple, out)))


class StandardExample:
    """SL_2 over F_p[t, t^-1]: upper unipotents with entry c*t^z as positive
    root groups, lower unipotents as negative ones.  The positive side is
    abelian."""

    tag = "standard"
    dim = 2

    def __init__(self, p: int):
        self.fp = Fp(p)
        self.p = self.fp.p

    def u(self, n: int, lam: int = 1) -> LaurentMatrix:
        """Positive-side generator with parameter lam at index n."""
        return self.root_generator(Root(n, 1), lam)

    def root_generator(self, root: Root, lam: int = 1) -> LaurentMatrix:
        check_root(root)
        fp = self.fp
        one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
        if root.eps == 1:
            entry = LaurentPoly.monomial(fp, lam, root.z)
            return LaurentMatrix._trusted(fp, ((one, entry), (zero, one)))
        entry = LaurentPoly.monomial(fp, lam, -root.z)
        return LaurentMatrix._trusted(fp, ((one, zero), (entry, one)))

    def h(self, lam: int) -> LaurentMatrix:
        if lam % self.p == 0:
            raise ValueError("diagonal parameter must be nonzero")
        fp = self.fp
        return LaurentMatrix.diagonal(
            fp, [LaurentPoly.const(fp, lam), LaurentPoly.const(fp, fp.inv(lam))]
        )

    def normal_form(self, m: LaurentMatrix, lo: int, hi: int) -> tuple:
        """Exponent vector (e_lo, ..., e_hi) with m = u_lo^e_lo ... u_hi^e_hi."""
        if lo > hi:
            if m.is_identity():
                return ()
            raise ValueError("nonidentity element on an empty window")
        if m.n != 2 or m._unitriangular() != _UPPER:
            raise ValueError("matrix is not upper unitriangular")
        f = m.rows[0][1]
        for z in f.support():
            if not lo <= z <= hi:
                raise ValueError(f"entry support t^{z} escapes window [{lo}, {hi}]")
        return tuple(f.coeff(z) for z in range(lo, hi + 1))

    def normal_form_negative(self, m: LaurentMatrix, lo: int, hi: int) -> tuple:
        """Same read-off on the negative side: index z sits at entry c*t^-z below."""
        if lo > hi:
            if m.is_identity():
                return ()
            raise ValueError("nonidentity element on an empty window")
        # the identity is lower unitriangular too, though its shape is upper
        if m.n != 2 or (m._unitriangular() != _LOWER and not m.is_identity()):
            raise ValueError("matrix is not lower unitriangular")
        f = m.rows[1][0]
        for z in f.support():
            if not lo <= -z <= hi:
                raise ValueError(f"entry support t^{z} escapes window [{lo}, {hi}]")
        return tuple(f.coeff(-z) for z in range(lo, hi + 1))

    def root_of(self, m: LaurentMatrix):
        """Match m against the generator families: (root, lam) or None."""
        if m.n != 2 or m.is_identity():
            return None
        shape = m._unitriangular()
        r = m.rows
        if shape == _UPPER and r[0][1].is_monomial():
            ((z, c),) = r[0][1].terms.items()
            return Root(z, 1), c
        if shape == _LOWER and r[1][0].is_monomial():
            ((z, c),) = r[1][0].terms.items()
            return Root(-z, -1), c
        return None

    def in_torus(self, m: LaurentMatrix) -> bool:
        r = m.rows
        return (
            m.n == 2
            and r[0][1].is_zero()
            and r[1][0].is_zero()
            and r[0][0].is_constant()
            and not r[0][0].is_zero()
            and (r[0][0] * r[1][1]).is_one()
        )


class UnitaryExample:
    """SL_3 over F_p[t, t^-1], p odd.  Even-index generators occupy the two
    superdiagonal slots plus a corrected corner; odd-index generators occupy
    the corner only and are central on the positive side."""

    tag = "unitary"
    dim = 3

    def __init__(self, p: int):
        fp = Fp(p)
        if fp.p == 2:
            raise ValueError("unitary example requires char != 2")
        self.fp = fp
        self.p = fp.p
        self._half = fp.inv(2)

    def u(self, n: int, lam: int = 1) -> LaurentMatrix:
        """Positive-side generator with parameter lam at index n."""
        fp = self.fp
        p = self.p
        one, zero = LaurentPoly.one(fp), LaurentPoly.zero(fp)
        lam %= p
        if n % 2 == 0:
            z = n // 2
            sgn = 1 if z % 2 else p - 1  # (-1)^(z+1)
            a12 = LaurentPoly.monomial(fp, -lam, z)
            a23 = LaurentPoly.monomial(fp, lam if z % 2 == 0 else -lam, z)
            a13 = LaurentPoly.monomial(fp, sgn * lam * lam * self._half, 2 * z)
            rows = ((one, a12, a13), (zero, one, a23), (zero, zero, one))
            return LaurentMatrix._trusted(fp, rows)
        z = (n - 1) // 2
        a13 = LaurentPoly.monomial(fp, lam if z % 2 == 0 else -lam, n)
        return LaurentMatrix._trusted(fp, ((one, zero, a13), (zero, one, zero), (zero, zero, one)))

    def root_generator(self, root: Root, lam: int = 1) -> LaurentMatrix:
        check_root(root)
        g = self.u(root.z, lam)
        return g if root.eps == 1 else g.transpose()

    def h(self, lam: int) -> LaurentMatrix:
        if lam % self.p == 0:
            raise ValueError("diagonal parameter must be nonzero")
        fp = self.fp
        return LaurentMatrix.diagonal(
            fp,
            [LaurentPoly.const(fp, lam), LaurentPoly.one(fp), LaurentPoly.const(fp, fp.inv(lam))],
        )

    def normal_form(self, m: LaurentMatrix, lo: int, hi: int) -> tuple:
        """Two-phase read-off.  The even part is visible in the (1,2) entry -f(t)
        (the (2,3) entry must equal f(-t)); dividing it off leaves a matrix
        supported in the corner, whose coefficient at t^(2z+1) times (-1)^z is
        the exponent of the odd generator 2z + 1.  The even part is divided
        off by one product per even letter, starting from m itself, so a
        matrix with no even letter costs no product."""
        if lo > hi:
            if m.is_identity():
                return ()
            raise ValueError("nonidentity element on an empty window")
        if m.n != 3:
            raise ValueError("expected a 3x3 matrix")
        if m._unitriangular() != _UPPER:
            raise ValueError("matrix is not upper unitriangular")
        f = -m.rows[0][1]
        if m.rows[1][2] != f.subs_neg_t():
            raise ValueError("inconsistent (1,2) and (2,3) entries")
        e = [0] * (hi - lo + 1)
        for z in f.support():
            n = 2 * z
            if not lo <= n <= hi:
                raise ValueError(f"even index {n} escapes window [{lo}, {hi}]")
            e[n - lo] = f.coeff(z)
        # m is the even part u(n1, e1) u(n2, e2) ... in ascending n times the
        # odd part, so the even letters come off on the left in ascending n:
        # u(n, -a) is the inverse of u(n, a)
        rem = m
        for n in range(lo, hi + 1):
            if n % 2 == 0 and e[n - lo]:
                rem = self.u(n, -e[n - lo]) * rem
        r = rem.rows
        if not (r[0][1].is_zero() and r[1][2].is_zero()):
            raise ValueError("even part does not divide off cleanly")
        g = r[0][2]
        for w in g.support():
            if w % 2 == 0 or not lo <= w <= hi:
                raise ValueError(f"corner support t^{w} escapes odd window positions")
            z = (w - 1) // 2
            c = g.coeff(w)
            e[w - lo] = c if z % 2 == 0 else (self.p - c) % self.p
        return tuple(e)

    def normal_form_negative(self, m: LaurentMatrix, lo: int, hi: int) -> tuple:
        """Negative-side read-off; transposition swaps the two sides index-wise."""
        return self.normal_form(m.transpose(), lo, hi)

    def root_of(self, m: LaurentMatrix):
        """Match m against the generator families: (root, lam) or None."""
        if m.n != 3 or m.is_identity():
            return None
        shape = m._unitriangular()
        if shape == _UPPER:
            got = self._match_positive(m)
            return None if got is None else (Root(got[0], 1), got[1])
        if shape == _LOWER:
            got = self._match_positive(m.transpose())
            return None if got is None else (Root(got[0], -1), got[1])
        return None

    def _match_positive(self, m: LaurentMatrix):
        """(index, lam) of the positive generator equal to m, an upper
        unitriangular matrix other than the identity, or None."""
        r = m.rows
        a12, a13, a23 = r[0][1], r[0][2], r[1][2]
        if a12.is_zero() and a23.is_zero() and a13.is_monomial():
            ((w, c),) = a13.terms.items()
            if w % 2 == 0:
                return None
            z = (w - 1) // 2
            lam = c if z % 2 == 0 else (self.p - c) % self.p
            return (w, lam) if self.u(w, lam) == m else None
        if a12.is_monomial():
            ((z, c),) = a12.terms.items()
            lam = (self.p - c) % self.p
            return (2 * z, lam) if self.u(2 * z, lam) == m else None
        return None

    def in_torus(self, m: LaurentMatrix) -> bool:
        if m.n != 3:
            return False
        r = m.rows
        return (
            all(r[i][j].is_zero() for i in range(3) for j in range(3) if i != j)
            and r[1][1].is_one()
            and r[0][0].is_constant()
            and not r[0][0].is_zero()
            and (r[0][0] * r[2][2]).is_one()
        )


EXAMPLES = {"standard": StandardExample, "unitary": UnitaryExample}


def make_example(tag: str, p: int):
    if tag not in EXAMPLES:
        raise ValueError(f"unknown example {tag!r}; choose from {sorted(EXAMPLES)}")
    return EXAMPLES[tag](p)

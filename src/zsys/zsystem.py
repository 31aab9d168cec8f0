"""Finite window truncations of a Z-system: power-commutator presented p-groups
with collection to normal form.

A WindowGroup on [lo, hi] is presented by generators x_lo ... x_hi with
relations x_i^p = 1 and x_j x_i = x_i x_j w(i, j) for i < j, where the stored
word w(i, j) is the normal form of [x_j, x_i] and is supported strictly
between i and j.  Elements are exponent vectors; products are computed by
collection from the left, which terminates because rewrite words have
strictly interior support.  Collection folds the word onto the normal form
built so far: a letter x_c lands in place when no letter above c is
collected, and otherwise crosses the letters above c, pushing back what
x_l x_c = x_c x_l w(c, l) leaves of them.  A crossing changes only the
letters above c, so each window remembers the result of every crossing it
has made (the caching idea behind collection from the left: Vaughan-Lee,
J. Symbolic Comput. 9, 1990).  A crossing reads the table only through the
words of the pairs (c, l) that it meets, one lookup each, so a window made
by `reading` from any lookup of crossing words collects on them as they are
read; the search records those reads to memoise its overlap checks on the
words that each one actually reads (`analysis`).

When no letter of any word is an endpoint of a pair, every word is central
and a crossing leaves the letters above c in place: x_c^e then crosses in
one step, adding e * e_l * w(c, l) for each letter x_l^(e_l) above c, which
is what e memoised crossings add.  The fold takes that step on such a
window and keeps no crossings there.  Multiplication only feeds the fold
letters, so it is the one multiplication rule, and the closed forms below
are read off from its central step.

On a central window the fold reads the entries of a only at pair endpoints
and writes the words only at letters, which are never endpoints, so
a * b = a + b + beta(a, b) with beta(a, b) = sum over pairs c < l of
a_l * b_c * w(c, l), bilinear.  A vector d that is zero at every endpoint,
as every value of beta is, is central: u * d = u + d.  So a * b is
(b * a) * d with d = beta(a, b) - beta(b, a), which makes the commutator
[a, b] = (b a)^-1 (a b) equal to d; and a * (-a + beta(a, a)) =
(a * -a) * beta(a, a) = beta(a, -a) + beta(a, a) = 0, so a^-1 = -a +
beta(a, a).  `comm_vec` and `inv_vec` take these closed forms there, in one
pass over the crossing words and with no product.

`closure` enumerates a subgroup H by cosets.  Since a letter above
everything collected so far lands in place, a coset H r whose
representative starts above every letter of H is a concatenation, formed
with no product; taken in index order, the window's generators give only
such cosets.  Any other coset is the image of H under one
right-multiplication map h -> h r, staged once per representative
(`WindowGroup.right_mul`).  On a central window h r is affine in h, and the
map folds r's few letters onto each element of H by the same one-step
crossing, with no product built per element.  Elements are kept packed
(`WindowGroup.pack`): as bytes when p <= 256, which slice, concatenate and
sort like the exponent tuples but are half their size and not tracked by the
garbage collector, so a closure of 78,125 elements builds no tuple.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple

from .laurent import is_prime
from .matgroup import commutator as mat_commutator

NfStats = namedtuple("NfStats", ["start", "end", "width"])


class CapExceeded(RuntimeError):
    """An enumeration grew past the configured element cap."""


DEFAULT_CAP = 100_000

# the error of collection on a table whose words are not strictly interior
NOT_INTERIOR = "comm table is not strictly interior; collection undefined"

# entries past which a fold empties its window's crossing memo: a long run on
# a wide non-central window keeps meeting new crossings (about 300,000 in
# 40,000 products on p=5 [0,10]).  The memo is a cache, so no result depends
# on the limit; the windows of the `search` benchmark hold at most 57.
CROSSING_LIMIT = 1 << 16


class WindowGroup:
    """Finite p-group presented on generators x_lo ... x_hi by a commutator table.

    The constructor checks and normalises the table.  The tables that
    collection reads are built from it on first use, so a window that is
    never multiplied (most of the candidates of a search) pays for none."""

    def __init__(self, p: int, lo: int, hi: int, comm=None):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        self.p = p
        self.lo = lo
        self.hi = hi
        self.width = hi - lo + 1
        self.order = p**self.width
        table = {}
        for (i, j), word in (comm or {}).items():
            if not (lo <= i < j <= hi):
                raise ValueError(f"pair ({i}, {j}) outside window [{lo}, {hi}]")
            norm = {}
            for k, e in word.items():
                if not lo <= k <= hi:
                    raise ValueError(f"word support {k} outside window [{lo}, {hi}]")
                e %= p
                if e:
                    norm[int(k)] = e
            if norm:
                table[(i, j)] = norm
        self.comm = table
        self.identity_vec = (0,) * self.width
        # (c, letters above c) -> the letters above c once one x_c crossed
        # them, emptied past CROSSING_LIMIT entries
        self._crossings = {}

    @classmethod
    def reading(cls, p: int, lo: int, hi: int, cross) -> "WindowGroup":
        """A window on [lo, hi] that collects through the crossing words
        `cross`: anything with dict's `get`, mapping a position pair (c, l)
        to the ascending (position, exponent) letters of w(lo + c, lo + l).
        Nothing is checked or normalised: the caller guarantees a prime p and
        normalised, strictly interior words.  The window always takes the
        generic fold, so every word a product needs is looked up in `cross`,
        and its crossing memo starts empty.  It has no `comm` table, so its
        collection tables are set here rather than built from one: only the
        products and `overlap_violation` are meant for it."""
        wg = cls.__new__(cls)
        wg.p, wg.lo, wg.hi, wg.width = p, lo, hi, hi - lo + 1
        wg.comm = None
        wg._interior_ok, wg._central = True, False
        wg._cross, wg._crossings = cross, {}
        wg.identity_vec = (0,) * wg.width
        return wg

    # -- collection tables, built on first use (`reading` sets them) ---------

    @functools.cached_property
    def _interior_ok(self) -> bool:
        """Whether every word is strictly interior, so collection is defined."""
        return self.zs5_ok() is None

    @functools.cached_property
    def _central(self) -> bool:
        """Whether the window takes the central fold: its words are strictly
        interior and no word letter is an endpoint of a pair."""
        used = {k for word in self.comm.values() for k in word}
        return self._interior_ok and all(i not in used and j not in used for i, j in self.comm)

    @functools.cached_property
    def _cross(self) -> dict:
        """Position-indexed crossing words as ascending (position, exponent)
        letters."""
        lo = self.lo
        return {
            (i - lo, j - lo): tuple((k - lo, word[k]) for k in sorted(word))
            for (i, j), word in self.comm.items()
        }

    @functools.cached_property
    def _cross_words(self) -> tuple:
        """On a central window, the crossing words as flat (c, l, word)
        triples, the form the closed forms loop over."""
        return tuple((c, l, word) for (c, l), word in self._cross.items())

    @functools.cached_property
    def _above(self) -> list:
        """On a central window, per position c the (l, crossing word) of every
        pair (c, l) that has a word."""
        above = [[] for _ in range(self.width)]
        for c, l, word in self._cross_words:
            above[c].append((l, word))
        return above

    # -- basic structure ---------------------------------------------------

    def indices(self):
        return range(self.lo, self.hi + 1)

    @functools.cached_property
    def pack(self):
        """The packing of exponent vectors in which `closure` keeps its
        elements: `pack(vec)` is `bytes(vec)` when p <= 256, since every
        reduced exponent then fits in one byte, and `tuple(vec)` otherwise.
        Packed vectors slice, concatenate, iterate and index to the same
        exponents as tuples and sort in the same order, but a bytes object
        never equals a tuple, so packed vectors are compared with packed ones
        only.  bytes(vec) raises ValueError on an entry outside 0..255."""
        return bytes if self.p <= 256 else tuple

    def gen_vec(self, i: int) -> tuple:
        if not self.lo <= i <= self.hi:
            raise ValueError(f"generator index {i} outside window [{self.lo}, {self.hi}]")
        return tuple(1 if k == i - self.lo else 0 for k in range(self.width))

    def is_abelian(self) -> bool:
        return not self.comm

    @functools.cached_property
    def overlap_witness(self):
        """`overlap_violation(self)`, None on a consistent table: computed on
        first use and kept; the search stores the outcome its memo decided."""
        return overlap_violation(self)

    def zs5_ok(self):
        """None if every word is strictly interior, else a witness triple."""
        for (i, j), word in sorted(self.comm.items()):
            for k in sorted(word):
                if not i < k < j:
                    return {"pair": [i, j], "index": k}
        return None

    # -- collection --------------------------------------------------------

    def collect(self, letters, start=None) -> tuple:
        """Normal form of the word `start` * letters, where `start` is a normal
        form (the identity when None) and the letters are (index, exponent)
        pairs applied left to right; raises ValueError on a table that is not
        strictly interior.

        Collection from the left, written as a fold: the normal form built so
        far is an exponent vector and the rest of the word is a stack.  A
        popped letter x_c^e with no letter above c adds e to entry c.
        Otherwise one x_c moves left past the letters x_l^(e_l) above c, which
        leaves (x_l w(c, l))^(e_l) for each of them in ascending order, and
        then x_c^(e-1) is popped again.  Leftmost rewriting of a descending
        adjacent pair keeps its word a collected prefix followed by the
        unprocessed letters and performs these very rewrites in this order,
        so the normal forms agree on every strictly interior table, consistent
        or not.  Everything a crossing produces lies above c, so the letters
        above c after it depend only on c and on the letters above c before
        it; the window keeps that result for the next time.

        On a central window (no word letter is an endpoint of a pair) the
        letters x_l above c stay put when x_c crosses them and every letter
        of w(c, l) lands without crossing anything, so one crossing adds
        e_l * w(c, l) for each x_l^(e_l) above c.  The fold adds e times that
        in one step, with no crossing kept."""
        p, lo = self.p, self.lo
        word = []
        for idx, exp in letters:
            if not lo <= idx <= self.hi:
                raise ValueError(f"letter index {idx} outside window [{lo}, {self.hi}]")
            c, e = idx - lo, exp % p
            if not e:
                continue
            if word and word[-1][0] == c:
                e = (word[-1][1] + e) % p
                if e:
                    word[-1] = (c, e)
                else:
                    word.pop()
            else:
                word.append((c, e))
        vec = [0] * self.width if start is None else [v % p for v in start]
        word.reverse()
        self._fold(vec, word)
        return tuple(vec)

    def _fold(self, vec: list, stack: list):
        """Collect the position-indexed letters x_c^e of the stack (top last,
        0 < e < p) onto the normal form vec, in place."""
        if not self._interior_ok:
            raise ValueError(NOT_INTERIOR)
        if self._central:
            self._central_fold(vec, reversed(stack))
            return
        p = self.p
        crossings = self._crossings
        if len(crossings) > CROSSING_LIMIT:
            crossings.clear()
        while stack:
            c, e = stack.pop()
            above = vec[c + 1 :]
            while e and any(above):
                key = (c, tuple(above))
                above = crossings.get(key)
                if above is None:
                    above = crossings[key] = self._crossing(*key)
                vec[c + 1 :] = above
                vec[c] += 1
                e -= 1
            vec[c] = (vec[c] + e) % p

    def _central_fold(self, vec: list, letters):
        """Collect the position-indexed letters x_c^e (any integer e), in the
        order given, onto the normal form vec, in place, on a central window:
        x_c^e adds e * vec[l] * w(c, l) for each pair (c, l) with a word, then
        e to entry c, each entry reduced mod p as it is written.  No word
        letter is an endpoint of a pair, so the entries vec[l] read here are
        never changed by the words that are added."""
        p, above = self.p, self._above
        for c, e in letters:
            if e:
                for l, word in above[c]:
                    f = e * vec[l]
                    if f:
                        for k, ek in word:
                            vec[k] = (vec[k] + f * ek) % p
                vec[c] = (vec[c] + e) % p

    def _crossing(self, c: int, above: tuple) -> tuple:
        """The letters above c once one x_c has moved left past `above`."""
        cross = self._cross
        out = []
        for l, e in enumerate(above, c + 1):
            if e:
                out += (((l, 1),) + cross.get((c, l), ())) * e
        out.reverse()
        vec = [0] * self.width
        self._fold(vec, out)
        return tuple(vec[c + 1 :])

    def _letters(self, vec):
        lo = self.lo
        return [(lo + k, e) for k, e in enumerate(vec) if e]

    def mul_vec(self, a: tuple, b: tuple) -> tuple:
        """Normal form of a * b: b's letters folded onto a."""
        p = self.p
        vec = [v % p for v in a]
        if self._central:
            self._central_fold(vec, enumerate(b))
        else:
            stack = [(c, r) for c, e in enumerate(b) if (r := e % p)]
            stack.reverse()
            self._fold(vec, stack)
        return tuple(vec)

    def right_mul(self, r: tuple):
        """The map h -> h * r on packed normal forms h (`pack`), giving packed
        results, for `closure` to apply to a whole subgroup.  On a central
        window h * r is affine in h, and the map folds r's letters, reduced
        and staged once, onto a list of h's exponents; a vector h that is not
        a normal form is not reduced first.  On any other window it is the
        product `mul_vec(h, r)`, packed."""
        pack = self.pack
        if not self._central:
            return lambda h: pack(self.mul_vec(h, r))
        p, fold = self.p, self._central_fold
        letters = tuple((c, f) for c, e in enumerate(r) if (f := e % p))

        def times_r(h):
            vec = list(h)
            fold(vec, letters)
            return pack(vec)

        return times_r

    def inv_vec(self, a: tuple) -> tuple:
        """Normal form of a^-1: the letters x_c^(-e) of a in descending order,
        folded onto the identity.

        On a central window a * b = a + b + beta(a, b) with beta(a, b) the sum
        of a_l * b_c * w(c, l) over the pairs c < l, bilinear and central, so
        a^-1 = -a + beta(a, a): starting from -a, one pass over the crossing
        words adds f * w(c, l) with f = a_l * a_c mod p, and no product is
        formed."""
        p = self.p
        if self._central:
            vec = [-e for e in a]
            for c, l, word in self._cross_words:
                if f := a[l] * a[c] % p:
                    for k, ek in word:
                        vec[k] += f * ek
            return tuple([v % p for v in vec])
        vec = [0] * self.width
        self._fold(vec, [(c, r) for c, e in enumerate(a) if (r := -e % p)])
        return tuple(vec)

    def pow_vec(self, a: tuple, k: int) -> tuple:
        if k < 0:
            return self.pow_vec(self.inv_vec(a), -k)
        out = self.identity_vec
        base = a
        while k:
            if k & 1:
                out = self.mul_vec(out, base)
            base = self.mul_vec(base, base)
            k >>= 1
        return out

    def comm_vec(self, a: tuple, b: tuple) -> tuple:
        """Normal form of [a, b] = a^-1 b^-1 a b, formed as (b a)^-1 (a b),
        or the identity, with no inverse, when a b = b a.

        On a central window a * b = a + b + beta(a, b) with beta(a, b) the sum
        of a_l * b_c * w(c, l) over the pairs c < l, bilinear and central, so
        [a, b] = beta(a, b) - beta(b, a): one pass over the crossing words
        adds f * w(c, l) with f = (a_l * b_c - b_l * a_c) mod p, and no
        product is formed."""
        if not self._central:
            ab, ba = self.mul_vec(a, b), self.mul_vec(b, a)
            if ab == ba:
                return self.identity_vec
            return self.mul_vec(self.inv_vec(ba), ab)
        p = self.p
        vec = [0] * self.width
        for c, l, word in self._cross_words:
            if f := (a[l] * b[c] - b[l] * a[c]) % p:
                for k, ek in word:
                    vec[k] += f * ek
        return tuple([v % p for v in vec])

    def shift_vec(self, a: tuple, k: int) -> tuple:
        """Translate the support by 2k generator indices; an explicit range
        error if the support would leave the window."""
        step = 2 * k
        vec = [0] * self.width
        for idx, e in self._letters(a):
            tgt = idx + step
            if not self.lo <= tgt <= self.hi:
                raise ValueError(
                    f"shift by {step} moves index {idx} outside window [{self.lo}, {self.hi}]"
                )
            vec[tgt - self.lo] = e
        return tuple(vec)

    def stats_vec(self, a: tuple) -> NfStats:
        support = [self.lo + k for k, e in enumerate(a) if e]
        if not support:
            return NfStats(math.inf, -math.inf, 0)
        return NfStats(support[0], support[-1], support[-1] - support[0] + 1)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        comm = {}
        for i, j in sorted(self.comm):
            word = self.comm[(i, j)]
            comm[f"{i},{j}"] = {str(k): word[k] for k in sorted(word)}
        return {"p": self.p, "lo": self.lo, "hi": self.hi, "comm": comm}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WindowGroup":
        """The window of a `to_json_dict` document.  p, lo, hi and the
        exponents must be integers (a bool is not one), and the indices in
        the "I,J" pair keys and the word keys decimal integers; anything else
        raises ValueError("malformed window-group data: ...")."""
        try:
            p, lo, hi = (_integer(data[name], name) for name in ("p", "lo", "hi"))
            comm = {}
            for key, word in data.get("comm", {}).items():
                i, j = (_decimal(part, "pair key") for part in key.split(","))
                comm[(i, j)] = {
                    _decimal(k, "word key"): _integer(e, "exponent") for k, e in word.items()
                }
        except (KeyError, ValueError, AttributeError, TypeError, OverflowError) as err:
            raise ValueError(f"malformed window-group data: {err}") from err
        return cls(p, lo, hi, comm)

    def __eq__(self, other):
        return (
            isinstance(other, WindowGroup)
            and (self.p, self.lo, self.hi, self.comm) == (other.p, other.lo, other.hi, other.comm)
        )

    def __hash__(self):
        frozen = tuple(
            (pair, tuple(sorted(word.items()))) for pair, word in sorted(self.comm.items())
        )
        return hash((self.p, self.lo, self.hi, frozen))

    def __repr__(self):
        return f"WindowGroup(p={self.p}, window=[{self.lo}, {self.hi}], relations={len(self.comm)})"


def _integer(value, name: str) -> int:
    """A JSON integer field as it is; anything else, a bool too, is refused."""
    if value.__class__ is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _decimal(text, name: str) -> int:
    """The integer spelled by an optional minus sign and decimal digits."""
    if not (isinstance(text, str) and re.fullmatch("-?[0-9]+", text)):
        raise ValueError(f"{name} must be a decimal integer, got {text!r}")
    return int(text)


# -- deriving windows from the matrix oracles -------------------------------


def derive_window(example, lo: int, hi: int) -> WindowGroup:
    """Build the window table from matrix arithmetic: for each pair i < j the
    stored word is the normal form of the matrix commutator [u_j, u_i]."""
    comm = {}
    gens = {i: example.u(i, 1) for i in range(lo, hi + 1)}
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            c = mat_commutator(gens[j], gens[i])
            vec = example.normal_form(c, lo, hi)
            word = {lo + k: e for k, e in enumerate(vec) if e}
            for k in word:
                if not i < k < j:
                    raise ValueError(f"commutator ({i}, {j}) has non-interior support {k}")
            if word:
                comm[(i, j)] = word
    return WindowGroup(example.p, lo, hi, comm)


# -- closure and consistency ---------------------------------------------


def refuse_inconsistent(wg: WindowGroup) -> None:
    """Raise ValueError("table is inconsistent: ...") on an `overlap_witness`."""
    witness = wg.overlap_witness
    if witness is not None:
        raise ValueError(f"table is inconsistent: {witness['kind']} at {witness['indices']}")


def closure(wg: WindowGroup, seed_vecs, cap: int | None = None) -> set:
    """The subgroup generated by the seeds, as the set of its packed elements
    (`WindowGroup.pack`: bytes when p <= 256, else tuples), by Dimino's coset
    enumeration (Butler, Fundamental Algorithms for Permutation Groups, LNCS
    559, 1991, section 6).

    The seeds are reduced mod p and taken in the given order, and one already
    in the set is skipped.  A new seed s extends the subgroup H built so far,
    kept as a list: the coset H s is added, then for every coset
    representative r and every seed g taken so far, the coset H (r g) is
    added when r g is new.

    A coset H r is formed without a product when no letter can cross, which
    rests on two facts of collection from the left on a strictly interior
    table (Sims, Computation with Finitely Presented Groups, 1994, ch. 9):
    a letter above everything collected so far lands in place, and a
    subgroup generated by vectors with no letter above t has no letter above
    t, since x_l x_c = x_c x_l w(c, l) puts no letter above l.  So while
    `top` is the highest letter of the seeds taken before s, no element h
    of H has a letter above `top`, and when r's lowest letter `low` lies
    above `top`, h r is the concatenation h[:low] + r[low:].  Seeds taken
    in index order, as the generators of a window, make every coset such a
    concatenation.  Any other coset is the image of H under the one
    right-multiplication map h -> h r (`WindowGroup.right_mul`), staged once
    per representative, which takes and gives packed elements; on a central
    window it folds the few letters of r onto each h, and on any other it is
    one product per element.  Either way the fold still forms the product
    r g of each representative and each seed, packed for its membership
    test.  Every element stays packed throughout: a concatenation joins two
    packed slices, and nothing is decoded.

    A coset is added without a membership test, which is exact only on a
    group, so an inconsistent window is refused first (`refuse_inconsistent`).

    Raises CapExceeded when the subgroup has more than `cap` elements
    (DEFAULT_CAP when None), once the coset holding its cap + 1st element is
    added."""
    refuse_inconsistent(wg)
    cap = DEFAULT_CAP if cap is None else cap
    p, mul, pack = wg.p, wg.mul_vec, wg.pack
    identity = pack(wg.identity_vec)
    elements = [identity]
    seen = {identity}
    gens = []
    top = -1

    def add_coset(subgroup, rep):
        low = next(k for k, e in enumerate(rep) if e)
        if low > top:
            tail = rep[low:]
            coset = [h[:low] + tail for h in subgroup]
        else:
            # subgroup[0] is the identity, so the coset starts at rep itself
            coset = [rep]
            coset += map(wg.right_mul(rep), subgroup[1:])
        seen.update(coset)
        if len(seen) > cap:
            raise CapExceeded(f"closure exceeded cap {cap} (at {cap + 1} elements)")
        elements.extend(coset)

    for s in seed_vecs:
        s = pack([v % p for v in s])
        if s in seen:
            continue
        gens.append(s)
        subgroup = elements[:]
        reps = [s]
        add_coset(subgroup, s)
        for r in reps:
            for g in gens:
                rg = pack(mul(r, g))
                if rg not in seen:
                    reps.append(rg)
                    add_coset(subgroup, rg)
        top = max(top, max(k for k, e in enumerate(s) if e))
    return seen


def overlap_checks(lo: int, hi: int):
    """Every overlap of two relations on [lo, hi], as descending index tuples:
    (j, i) for x_j x_i against the power relations, (k, j, i) for x_k x_j x_i.
    This is the order in which overlap_violation runs them by default."""
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            yield (j, i)
            for k in range(j + 1, hi + 1):
                yield (k, j, i)


def overlap_violation(wg: WindowGroup, checks=None):
    """Complete consistency test for the presentation: collect both sides of
    every overlap of two relations (or of the given overlap_checks tuples
    only).  Returns None when consistent, else a witness for the first failing
    check.  Passing every check implies the collected normal forms are unique,
    hence the group order is exactly p^width.

    A check with extreme indices i and k (k = j for the power check on
    x_j x_i) collects words whose letters stay in [i, k], rewriting only
    through the words of pairs inside [i, k], and collection commutes with
    translating every index.  So its outcome is fixed by p, the check minus
    i, and the sub-table on [i, k] moved to 0, and indeed by the words of
    that sub-table that collection looks up.  The search runs a check it has
    not decided on such a sub-window made by `WindowGroup.reading`, records
    the words the run reads, and keeps the outcome in a decision tree on
    them (`analysis`); this test keeps no memo."""
    p, lo, hi = wg.p, wg.lo, wg.hi
    if checks is None:
        checks = overlap_checks(lo, hi)

    def letter(i, e=1):
        return (0,) * (i - lo) + (e,) + (0,) * (hi - i)

    products = {}
    for check in checks:
        k, j, i = check[0], check[-2], check[-1]
        ji = products.get((j, i))
        if ji is None:
            ji = products[(j, i)] = wg.mul_vec(letter(j), letter(i))
        if len(check) == 2:
            # x_j^(p-1) and x_i^(p-1) are single letters, hence in normal form
            kind, left, right = "power_left", wg.mul_vec(letter(j, p - 1), ji), letter(i)
            if left == right:
                kind, left, right = "power_right", wg.mul_vec(ji, letter(i, p - 1)), letter(j)
        else:
            gk = letter(k)
            kind = "triple"
            left = wg.mul_vec(wg.mul_vec(gk, letter(j)), letter(i))
            right = wg.mul_vec(gk, ji)
        if left != right:
            return {"kind": kind, "indices": list(check), "left": left, "right": right}
    return None


def shift_violation(wg: WindowGroup, step: int):
    """First pair (i, j) whose word, translated by step, differs from the word
    of (i + step, j + step), over the pairs where both are in the window; None
    if the table is invariant under that translation."""
    for i in wg.indices():
        for j in range(i + 1, wg.hi + 1 - step):
            shifted = {k + step: e for k, e in wg.comm.get((i, j), {}).items()}
            if wg.comm.get((i + step, j + step), {}) != shifted:
                return {"pair": [i, j], "shifted_pair": [i + step, j + step]}
    return None


def report_entry(witness, **fields) -> dict:
    """The entry of one check in a report: "pass" (true when there is no
    witness), then the fields in the given order, then the witness when
    there is one.  Every check report of `zsystem`, `analysis` and `rgd` that
    is decided by a witness is built here."""
    entry = {"pass": witness is None, **fields}
    if witness is not None:
        entry["witness"] = witness
    return entry


def verify_zs_axioms(wg: WindowGroup, cap: int | None = None) -> dict:
    """Per-axiom pass/fail report at window scale.  Failures are report
    entries, never exceptions.

    ZS2/ZS6 is decided by the overlap test: the table is consistent iff
    the window has no overlap witness, and then the order is p^width.  On a
    consistent table below the cap the closure of the window generators is
    counted as well; the entry reports that count with method "exhaustive".

    That count tests the collector, not the table.  With the generators in
    index order, `closure` forms every coset by concatenation, and its only
    products are x_k^m x_i for i <= k, the membership tests of its
    representatives x_k^m.  On a strictly interior table collection of
    x_k^m x_i moves x_i left past x_k^m and leaves letters in [i, k] with
    exponent m at k, so for i < k the product lies in H x_k^m, H being every
    vector below k, and for i = k it is the next representative.  So the
    count is p^width by construction, and only a fault in the collector can
    make it differ.

    ZS4 (x_i^p = 1 and x_i != 1) is decided from ZS2/ZS6: in a group of order
    p^width presented by its normal forms, each x_i is a nontrivial element
    with the relation x_i^p = 1, so it has order exactly p.  When ZS2/ZS6
    fails the presentation may collapse, x_i may have lower order, and the
    ZS4 entry is skipped, as it is when ZS5 fails."""
    cap = DEFAULT_CAP if cap is None else cap
    zs5_witness = wg.zs5_ok()
    if zs5_witness is None:
        witness = wg.overlap_witness
        entry = {"expected": wg.order}
        if witness is not None:
            entry["pass"] = False
            entry["method"] = "associativity"
            entry["witness"] = {
                "kind": witness["kind"],
                "indices": witness["indices"],
                "left": list(witness["left"]),
                "right": list(witness["right"]),
            }
        elif wg.order <= cap:
            size = len(closure(wg, [wg.gen_vec(i) for i in wg.indices()], cap))
            entry["pass"] = size == wg.order
            entry["method"] = "exhaustive"
            entry["order"] = size
        else:
            entry["pass"] = True
            entry["method"] = "associativity"
        zs4 = {"pass": True} if entry["pass"] else {"pass": False, "skipped": "ZS2/ZS6 fails"}
    else:
        zs4 = {"pass": False, "skipped": "comm table not strictly interior"}
        entry = dict(zs4)
    checks = {
        "ZS2/ZS6": entry,
        "ZS3": report_entry(shift_violation(wg, 2)),
        "ZS4": zs4,
        "ZS5": report_entry(zs5_witness),
    }
    return {
        "p": wg.p,
        "lo": wg.lo,
        "hi": wg.hi,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }

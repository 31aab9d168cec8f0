"""Finite window truncations of a Z-system: power-commutator presented p-groups
with collection to normal form.

A WindowGroup on [lo, hi] is presented by generators x_lo ... x_hi with
relations x_i^p = 1 and x_j x_i = x_i x_j w(i, j) for i < j, where the stored
word w(i, j) is the normal form of [x_j, x_i] and is supported strictly
between i and j.  Elements are exponent vectors; products are computed by
collection from the left (repeatedly rewriting the leftmost descending
adjacent pair), which terminates because rewrite words have strictly interior
support.

When every generator occurring in a commutator word is itself central in the
table, products collapse to a closed form: add the vectors and accumulate one
correction word per crossing pair.  This fast path is used automatically; it
agrees with generic collection whenever the table is consistent.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .laurent import is_prime
from .matgroup import commutator as mat_commutator

NfStats = namedtuple("NfStats", ["start", "end", "width"])


class CapExceeded(RuntimeError):
    """An enumeration grew past the configured element cap."""


DEFAULT_CAP = 100_000


class WindowGroup:
    """Finite p-group presented on generators x_lo ... x_hi by a commutator table."""

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
        # letters as ascending (index, exponent) tuples, for the rewriting engine
        self._words = {
            pair: tuple((k, word[k]) for k in sorted(word)) for pair, word in table.items()
        }
        used = {k for word in table.values() for k in word}
        self._interior_ok = all(
            i < k < j for (i, j), word in table.items() for k in word
        )
        self._central = self._interior_ok and all(
            i not in used and j not in used for i, j in table
        )
        # position-indexed crossing words for the closed-form fast path
        self._cross = {
            (i - lo, j - lo): tuple((k - lo, e) for k, e in pairs)
            for (i, j), pairs in self._words.items()
        }
        self.identity_vec = (0,) * self.width

    # -- basic structure ---------------------------------------------------

    def indices(self):
        return range(self.lo, self.hi + 1)

    def gen_vec(self, i: int) -> tuple:
        if not self.lo <= i <= self.hi:
            raise ValueError(f"generator index {i} outside window [{self.lo}, {self.hi}]")
        return tuple(1 if k == i - self.lo else 0 for k in range(self.width))

    def generator(self, i: int) -> "GroupElement":
        return GroupElement(self, self.gen_vec(i))

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_vec)

    def element(self, vec) -> "GroupElement":
        return GroupElement(self, tuple(vec))

    def element_from_word(self, word) -> "GroupElement":
        """Collect a word given as (index, exponent) pairs, applied left to right."""
        return GroupElement(self, self.collect(word))

    def is_abelian(self) -> bool:
        return not self.comm

    def zs5_ok(self):
        """None if every word is strictly interior, else a witness triple."""
        for (i, j), word in sorted(self.comm.items()):
            for k in sorted(word):
                if not i < k < j:
                    return {"pair": [i, j], "index": k}
        return None

    # -- collection --------------------------------------------------------

    def collect(self, letters) -> tuple:
        """Normal form of a word of (index, exponent) letters, by collection
        from the left."""
        if not self._interior_ok:
            raise ValueError("comm table is not strictly interior; collection undefined")
        p = self.p
        word = []
        for idx, exp in letters:
            if not self.lo <= idx <= self.hi:
                raise ValueError(f"letter index {idx} outside window [{self.lo}, {self.hi}]")
            e = exp % p
            if not e:
                continue
            if word and word[-1][0] == idx:
                e = (word[-1][1] + e) % p
                if e:
                    word[-1] = (idx, e)
                else:
                    word.pop()
            else:
                word.append((idx, e))
        pos = 0
        while pos < len(word) - 1:
            j, ej = word[pos]
            i, ei = word[pos + 1]
            if j == i:
                e = (ej + ei) % p
                word[pos : pos + 2] = [(i, e)] if e else []
                pos = max(pos - 1, 0)
            elif j > i:
                repl = [(j, ej - 1)] if ej > 1 else []
                repl += [(i, 1), (j, 1)]
                repl += self._words.get((i, j), ())
                if ei > 1:
                    repl.append((i, ei - 1))
                word[pos : pos + 2] = repl
                pos = max(pos - 1, 0)
            else:
                pos += 1
        vec = [0] * self.width
        for idx, e in word:
            vec[idx - self.lo] = e
        return tuple(vec)

    def _letters(self, vec):
        lo = self.lo
        return [(lo + k, e) for k, e in enumerate(vec) if e]

    def mul_vec(self, a: tuple, b: tuple) -> tuple:
        if self._central:
            p = self.p
            out = [x + y for x, y in zip(a, b)]
            cross = self._cross
            for jp in range(self.width):
                ej = a[jp]
                if ej:
                    for ip in range(jp):
                        bi = b[ip]
                        if bi:
                            w = cross.get((ip, jp))
                            if w:
                                c = ej * bi
                                for kp, ck in w:
                                    out[kp] += c * ck
            return tuple(v % p for v in out)
        return self.collect(self._letters(a) + self._letters(b))

    def inv_vec(self, a: tuple) -> tuple:
        if self._central:
            p = self.p
            out = [-v for v in a]
            cross = self._cross
            for jp in range(self.width):
                ej = a[jp]
                if ej:
                    for ip in range(jp):
                        ai = a[ip]
                        if ai:
                            w = cross.get((ip, jp))
                            if w:
                                c = ej * ai
                                for kp, ck in w:
                                    out[kp] += c * ck
            return tuple(v % p for v in out)
        return self.collect([(idx, -e) for idx, e in reversed(self._letters(a))])

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
        return self.mul_vec(self.inv_vec(self.mul_vec(b, a)), self.mul_vec(a, b))

    def conj_vec(self, a: tuple, b: tuple) -> tuple:
        """a conjugated by b, i.e. b^-1 a b."""
        return self.mul_vec(self.inv_vec(b), self.mul_vec(a, b))

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
        try:
            p, lo, hi = int(data["p"]), int(data["lo"]), int(data["hi"])
            comm = {}
            for key, word in data.get("comm", {}).items():
                i, j = (int(part) for part in key.split(","))
                comm[(i, j)] = {int(k): int(e) for k, e in word.items()}
        except (KeyError, ValueError, AttributeError) as err:
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


class GroupElement:
    """Normal-form element of a WindowGroup; equality is vector equality."""

    __slots__ = ("window", "e")

    def __init__(self, window: WindowGroup, e):
        e = tuple(int(v) % window.p for v in e)
        if len(e) != window.width:
            raise ValueError(f"expected {window.width} exponents, got {len(e)}")
        self.window = window
        self.e = e

    def _same(self, other: "GroupElement"):
        if self.window != other.window:
            raise ValueError("window mismatch")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        return GroupElement(self.window, self.window.mul_vec(self.e, other.e))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.window, self.window.inv_vec(self.e))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(self.window, self.window.pow_vec(self.e, k))

    def commutator(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        return GroupElement(self.window, self.window.comm_vec(self.e, other.e))

    def conjugate_by(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        return GroupElement(self.window, self.window.conj_vec(self.e, other.e))

    def shift(self, k: int) -> "GroupElement":
        return GroupElement(self.window, self.window.shift_vec(self.e, k))

    def stats(self) -> NfStats:
        return self.window.stats_vec(self.e)

    def is_identity(self) -> bool:
        return self.e == self.window.identity_vec

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.window == other.window
            and self.e == other.e
        )

    def __hash__(self):
        return hash(self.e)

    def __repr__(self):
        if self.is_identity():
            return "1"
        return " ".join(
            f"x{idx}" + (f"^{e}" if e > 1 else "")
            for idx, e in zip(self.window.indices(), self.e)
            if e
        )


def nf_stats(a: GroupElement) -> NfStats:
    return a.stats()


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


def closure(wg: WindowGroup, seed_vecs, cap: int | None = None) -> set:
    """Multiplicative closure of the seeds (a subgroup: the window group is
    finite, so the monoid closure is already closed under inverses)."""
    cap = DEFAULT_CAP if cap is None else cap
    gens = [v for v in dict.fromkeys(seed_vecs) if v != wg.identity_vec]
    seen = {wg.identity_vec}
    frontier = [wg.identity_vec]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = wg.mul_vec(v, g)
                if w not in seen:
                    seen.add(w)
                    if len(seen) > cap:
                        raise CapExceeded(
                            f"closure exceeded cap {cap} (at {len(seen)} elements)"
                        )
                    new.append(w)
        frontier = new
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
    hence the group order is exactly p^width."""
    gens = {i: wg.gen_vec(i) for i in wg.indices()}
    p = wg.p
    if checks is None:
        checks = overlap_checks(wg.lo, wg.hi)
    products = {}
    for check in checks:
        j, i = check[-2:]
        gi, gj = gens[i], gens[j]
        ji = products.get((j, i))
        if ji is None:
            ji = products[(j, i)] = wg.mul_vec(gj, gi)
        if len(check) == 2:
            left = wg.mul_vec(wg.pow_vec(gj, p - 1), ji)
            if left != gi:
                return {"kind": "power_left", "indices": [j, i], "left": left, "right": gi}
            right = wg.mul_vec(ji, wg.pow_vec(gi, p - 1))
            if right != gj:
                return {"kind": "power_right", "indices": [j, i], "left": right, "right": gj}
            continue
        gk = gens[check[0]]
        left = wg.mul_vec(wg.mul_vec(gk, gj), gi)
        right = wg.mul_vec(gk, ji)
        if left != right:
            return {"kind": "triple", "indices": list(check), "left": left, "right": right}
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


def verify_zs_axioms(wg: WindowGroup, cap: int | None = None) -> dict:
    """Per-axiom pass/fail report at window scale.  Failures are report
    entries, never exceptions."""
    cap = DEFAULT_CAP if cap is None else cap
    checks = {}

    zs5_witness = wg.zs5_ok()
    checks["ZS5"] = {"pass": zs5_witness is None}
    if zs5_witness is not None:
        checks["ZS5"]["witness"] = zs5_witness

    shift_witness = shift_violation(wg, 2)
    checks["ZS3"] = {"pass": shift_witness is None}
    if shift_witness is not None:
        checks["ZS3"]["witness"] = shift_witness

    if zs5_witness is None:
        zs4_witness = None
        for i in wg.indices():
            g = wg.gen_vec(i)
            if wg.pow_vec(g, wg.p) != wg.identity_vec or g == wg.identity_vec:
                zs4_witness = {"index": i}
                break
        checks["ZS4"] = {"pass": zs4_witness is None}
        if zs4_witness is not None:
            checks["ZS4"]["witness"] = zs4_witness

        witness = overlap_violation(wg)
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
        checks["ZS2/ZS6"] = entry
    else:
        checks["ZS4"] = {"pass": False, "skipped": "comm table not strictly interior"}
        checks["ZS2/ZS6"] = {"pass": False, "skipped": "comm table not strictly interior"}

    ordered = {name: checks[name] for name in ("ZS2/ZS6", "ZS3", "ZS4", "ZS5")}
    return {
        "p": wg.p,
        "lo": wg.lo,
        "hi": wg.hi,
        "checks": ordered,
        "pass": all(c["pass"] for c in ordered.values()),
    }

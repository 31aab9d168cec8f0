"""Group-theoretic analysis on window groups: subgroup calculus, the lower
central series and nilpotency class, lower cutoff, the abelian criterion,
shift-invariant closures, lemma property checks, and the exhaustive search
over shift-invariant commutation tables.

Subgroups are materialized element sets (windows at desk scale are small),
enumerated by cosets in `zsystem.closure` and kept in its packed form
(`WindowGroup.pack`).  One rule, `_commutator_rounds`, gives the class,
the series and normal closures from commutators with the window
generators: the class forms no subgroup, and each series term or normal
closure is one closure of the rounds; the tests check each against
subgroups built from the elements.  Every function here that reads the
table as a group refuses an inconsistent one with `closure`'s error; the
search stores its overlap outcome on each window it builds.

The search and its extension certificates decide consistency with the
complete overlap test `zsystem.overlap_violation` only (the extension runs
the boundary overlaps level by level while it backtracks), and spread every
representative word over its translation orbit with `_propagate`.  Every
table they build is shift-invariant, so a check with lowest index i reads
the table only through orbit words, each in a slot (parity relative to i,
distance), and its outcome is fixed by p, its shape and the words that its
collection looks up.  One `OverlapMemo` keeps the outcomes as a decision
tree per (p, check shape) on those words.  At a miss the check runs once on
the sub-window [0, n] read from the orbit words
(`zsystem.WindowGroup.reading`), and the slots it reads become a path of
the tree.  A table is first decided from the leaves the trees already hold,
so a check that fails there answers before any other check runs; only then
do the undecided checks run, in plan order.  The memo serves a whole
`search_tables` call, its candidates and every certificate under it, so a
check that recurs in translate, or on tables that differ only in words it
does not read, is collected once; a direct `extendable` call owns a memo
of its own.  Backtracking nodes are
decided from their orbit words alone, and only the widenings they yield
are built into windows.  The exhaustive closure stays in
`zsystem.verify_zs_axioms`, the `axioms` report.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple
from types import MappingProxyType

from . import zsystem
from .matgroup import commutator as mat_commutator
from .zsystem import CapExceeded, WindowGroup, closure, report_entry, shift_violation

# not called here since search decides consistency with overlap_violation;
# kept as a module name because the benchmark's layer tracer patches it
from .zsystem import verify_zs_axioms  # noqa: F401

CutoffResult = namedtuple("CutoffResult", ["value", "witness"])


class Subgroup:
    """A subgroup of a window group as an explicit, enumerated element set.

    It keeps, as `packed`, the set of packed elements (`WindowGroup.pack`)
    that `closure` returns; `elements` is the same set as exponent tuples,
    built on first use.  Membership, subset (`packed <`), equality and
    `sorted_elements` read the packed set."""

    def __init__(self, window: WindowGroup, generators, packed):
        self.window = window
        self.generators = tuple(generators)
        self.packed = frozenset(packed)

    @functools.cached_property
    def elements(self) -> frozenset:
        return frozenset(map(tuple, self.packed))

    @property
    def order(self) -> int:
        return len(self.packed)

    def __contains__(self, vec) -> bool:
        try:
            return self.window.pack(vec) in self.packed
        except ValueError:
            # an entry bytes cannot hold lies outside 0..p-1: not a member
            return False

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.packed == other.packed

    def __hash__(self):
        return hash(self.packed)

    def sorted_elements(self) -> list:
        return [tuple(v) for v in sorted(self.packed)]

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.window!r})"


def generate(wg: WindowGroup, gen_vecs, cap=None) -> Subgroup:
    """The subgroup generated by the vectors, enumerated by `closure` (coset
    enumeration, which refuses an inconsistent table)."""
    gens = [tuple(v) for v in gen_vecs]
    return Subgroup(wg, gens, closure(wg, gens, cap))


def _table_words(wg: WindowGroup) -> list:
    """The table words as vectors: on a consistent table [x_j, x_i] = w(i, j),
    so they generate X' as a normal subgroup."""
    indices = wg.indices()
    return [tuple(word.get(k, 0) for k in indices) for word in wg.comm.values()]


def _commutator_rounds(wg: WindowGroup, seeds) -> list:
    """The rounds S_1, S_2, ... of the seeds, each a sorted list: S_1 holds
    the nontrivial seeds reduced mod p, S_(k+1) the nontrivial [s, x] for s
    in S_k and x a window generator; the first empty round ends the list.

    If N = <S>^G and G = <X>, then [N, G] = <[s, x] : s in S, x in X>^G, so
    the rounds from S_k on generate the k-th term of N, [N, G], [N, G, G],
    ... as a normal subgroup, trivial exactly when S_k is empty.  And their
    union T generates a normal subgroup: t^x = t [t, x], with [t, x] in T
    or trivial, so conjugation by x maps the finite <T> into, hence onto,
    itself.  The terms descend strictly in a group of order p^width, so
    there are at most width rounds; past them RuntimeError (an internal
    error).  Refuses an inconsistent table with `closure`'s ValueError, and
    raises CapExceeded on a round of more than `zsystem.DEFAULT_CAP`."""
    witness = wg.overlap_witness
    if witness is not None:
        raise ValueError(f"table is inconsistent: {witness['kind']} at {witness['indices']}")
    p, identity, comm = wg.p, wg.identity_vec, wg.comm_vec
    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    rounds = []
    current = {tuple(v % p for v in s) for s in seeds} - {identity}
    while current:
        if len(current) > zsystem.DEFAULT_CAP:
            raise CapExceeded(
                f"commutator round of {len(current)} elements is past the cap {zsystem.DEFAULT_CAP}"
            )
        if len(rounds) == wg.width:
            raise RuntimeError("internal error: commutator rounds do not end")
        rounds.append(sorted(current))
        current = {w for s in rounds[-1] for x in window_gens if (w := comm(s, x)) != identity}
    return rounds


def normal_closure(wg: WindowGroup, gen_vecs, cap=None) -> Subgroup:
    """Smallest subgroup containing the seeds and closed under conjugation by
    the window generators (hence by the whole group): the subgroup generated
    by every round of `_commutator_rounds`, the seeds and their iterated
    commutators with the window generators, which is normal with no test."""
    return generate(wg, itertools.chain(*_commutator_rounds(wg, gen_vecs)), cap)


def derived_subgroup(wg: WindowGroup, cap=None) -> Subgroup:
    """X' = [X, X]: the normal closure of the table words."""
    return normal_closure(wg, _table_words(wg), cap)


def lower_central_series(wg: WindowGroup, cap=None) -> list:
    """[X, X'=gamma_2, gamma_3, ...] down to the trivial subgroup.  The first
    term stands for the whole group and is not materialized.  With S_1, S_2,
    ... the rounds of the table words (`_commutator_rounds`), gamma_(k+1) is
    generated by the rounds from S_k on; the rounds are formed once, and each
    term is one closure."""
    rounds = _commutator_rounds(wg, _table_words(wg))
    terms = [generate(wg, itertools.chain(*rounds[k:]), cap) for k in range(len(rounds) + 1)]
    return [None] + terms  # None for the whole group


def nilpotency_class(wg: WindowGroup) -> int:
    """Length of the lower central series to triviality (1 for abelian): 1 +
    the number of rounds of the table words (`_commutator_rounds`), since
    gamma_(k+1) is trivial exactly when the k-th round is empty.  Forms no
    subgroup."""
    return 1 + len(_commutator_rounds(wg, _table_words(wg)))


# matrix commutators past which lower_cutoff refuses to scan a matrix
# example: it forms two for each distance up to the bound, each one
# closed-form step of about 5 us on the standard family at p = 5 (Python
# 3.11 on a 2-core x86-64 host)
CUTOFF_BUDGET = 10**4


def lower_cutoff(target, bound: int) -> CutoffResult:
    """Least distance |m - n| with a nontrivial commutator, scanned in
    increasing distance; None value means abelian within the bound.

    For a WindowGroup the comm table is scanned up to the bound or hi - lo,
    past which no pair lies.  For a matrix example the commutator
    [u_n, u_{n+d}] is computed directly for n in {0, 1}, which covers all
    pairs by shift invariance; a bound that would form more than
    CUTOFF_BUDGET commutators raises CapExceeded before the first.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if isinstance(target, WindowGroup):
        for d in range(1, min(bound, target.hi - target.lo) + 1):
            for i in range(target.lo, target.hi + 1 - d):
                if target.comm.get((i, i + d)):
                    return CutoffResult(d, (i, i + d))
        return CutoffResult(None, None)
    if 2 * bound > CUTOFF_BUDGET:
        raise CapExceeded(
            f"cutoff up to distance {bound} needs {2 * bound} commutators, "
            f"past the budget of {CUTOFF_BUDGET}"
        )
    # each generator is built once: u_0 and u_1 before the scan, and u_(1 + d)
    # at distance d, which is u_(0 + d) at the next distance
    low = (target.u(0, 1), target.u(1, 1))
    high = low[1]
    for d in range(1, bound + 1):
        for n in (0, 1):
            if n:
                high = target.u(1 + d, 1)
            if not mat_commutator(low[n], high).is_identity():
                return CutoffResult(d, (n, n + d))
    return CutoffResult(None, None)


def single_shift_extends(wg: WindowGroup) -> bool:
    """Whether the table is invariant under translating all indices by one,
    wherever both sides are in range (the window-scale meaning of the map
    x_k -> x_{k+1} extending to an automorphism).

    The pair (lo, hi) at the window's maximal distance has no in-range
    partner (lo + 1, hi + 1), so its entry is never compared: on a table whose
    only noncommuting pair is (lo, hi) the predicate is vacuously true."""
    return shift_violation(wg, 1) is None


def shift_invariant_closure(wg: WindowGroup, a_vec, b_vec, cap=None):
    """Subgroup generated by every in-window translate of the two seeds, with
    the parity split of the occurring start indices."""
    gens = []
    for vec in (tuple(a_vec), tuple(b_vec)):
        support = [idx for idx, e in zip(wg.indices(), vec) if e]
        if not support:
            continue
        k = -((support[0] - wg.lo) // 2)  # least k keeping the support above lo
        while support[-1] + 2 * k <= wg.hi:
            gens.append(wg.shift_vec(vec, k))
            k += 1
    sub = generate(wg, gens, cap)
    identity = wg.pack(wg.identity_vec)
    starts = {wg.stats_vec(v).start for v in sub.packed if v != identity}
    info = {
        "even_start_nonempty": any(s % 2 == 0 for s in starts),
        "odd_start_nonempty": any(s % 2 == 1 for s in starts),
        "start_indices": sorted(starts),
    }
    return sub, info


# bilinearity trials past which lemma_checks refuses to run: a trial forms
# three commutators and two products, and a quotient of its two sides only
# when they differ, which needs class 5 or more.  10^5 trials take about
# 1.2 s on the unitary p=5 [0, 7] window, a central one, where the
# commutators take their closed form and no quotient is formed (2-core
# x86-64 host, Python 3.11)
TRIALS_BUDGET = 10**5


def lemma_checks(wg: WindowGroup, cap=None, trials: int = 50, seed: int = 0) -> dict:
    """Window-scale property checks: cutoff alternation, bilinearity of
    commutation modulo gamma_4 = [X', X, X], strict shrinking of
    [V, X] inside each series term, and the abelian criterion.

    The two commutator checks read every subgroup they use from one
    `lower_central_series`: bilinearity holds modulo its term gamma_4, and
    the image [gamma_k, X] of each term is the next term.  A trial with
    sides lhs = [y y2, x] and base = [y, x] [y2, x] fails when lhs differs
    from base and base^-1 lhs is not in gamma_4; a trial with equal sides
    forms no inverse and no product, and on a window of class at most 4
    (every central one among them) the sides are always equal, since
    lhs = [y, x] [[y, x], y2] [y2, x] with [[y, x], y2] in gamma_5.

    The abelian criterion passes when abelian == unit-shift-invariant, or when
    every noncommuting pair lies at the maximal distance hi - lo (the lower
    cutoff is hi - lo).  There the unit-shift predicate is vacuously true and
    the window cannot decide the criterion; such an entry carries
    "vacuous_at_boundary": true.  Fewer than one bilinearity trial would
    check nothing and is refused; more than TRIALS_BUDGET raise CapExceeded
    before the series is formed."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > TRIALS_BUDGET:
        raise CapExceeded(f"{trials} bilinearity trials are past the budget of {TRIALS_BUDGET}")
    rng = random.Random(seed)
    checks = {}

    cut = lower_cutoff(wg, max(wg.width - 1, 1))
    entry = {"pass": True, "cutoff": cut.value}
    if cut.value is not None:
        d = cut.value
        hits = [(i, i + d) for i in range(wg.lo, wg.hi + 1 - d) if wg.comm.get((i, i + d))]
        even_hit = [pair for pair in hits if pair[0] % 2 == 0]
        odd_hit = [pair for pair in hits if pair[0] % 2 == 1]
        entry["pass"] = not (even_hit and odd_hit)
        entry["even_start_pairs"] = even_hit
        entry["odd_start_pairs"] = odd_hit
    checks["cutoff_alternation"] = entry

    series = lower_central_series(wg, cap)
    derived = series[1].sorted_elements()
    # gamma_4, the trivial last term when the series is shorter
    gamma4 = series[min(3, len(series) - 1)]
    witness = None
    for _ in range(trials):
        y = derived[rng.randrange(len(derived))]
        y2 = derived[rng.randrange(len(derived))]
        x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
        lhs = wg.comm_vec(wg.mul_vec(y, y2), x)
        base = wg.mul_vec(wg.comm_vec(y, x), wg.comm_vec(y2, x))
        if lhs != base and wg.mul_vec(wg.inv_vec(base), lhs) not in gamma4:
            witness = {"y": list(y), "y2": list(y2), "x": list(x)}
            break
    checks["commutator_bilinearity"] = report_entry(witness, trials=trials)

    witness = next(
        (
            {"term_order": term.order, "image_order": image.order}
            for term, image in zip(series[1:], series[2:])
            if not image.packed < term.packed
        ),
        None,
    )
    # the whole group itself also shrinks: [X, X] is proper
    if witness is None and series[1].order >= wg.order:
        witness = {"term_order": wg.order, "image_order": series[1].order}
    checks["commutator_image_proper"] = report_entry(witness)

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


# -- search over shift-invariant tables -------------------------------------


@functools.lru_cache(maxsize=None)
def _word_choices(p: int, i: int, j: int, support_bound: int) -> tuple:
    """All interior words for pair (i, j) with at most support_bound nonzero
    entries, in lexicographic order of the exponent tuple over i+1 .. j-1.
    Built once per argument tuple and shared by every caller, hence read-only
    words."""
    positions = range(i + 1, j)
    words = [
        MappingProxyType(dict(zip(support, exps)))
        for n in range(min(support_bound, len(positions)) + 1)
        for support in itertools.combinations(positions, n)
        for exps in itertools.product(range(1, p), repeat=n)
    ]
    words.sort(key=lambda word: tuple(word.get(k, 0) for k in positions))
    return tuple(words)


def _coded(word, start: int) -> tuple:
    """(code, letters) of the word of a pair that starts at `start`: its
    letters ascending as (position minus start, exponent), and the string
    that the overlap memo branches on, their number and then each position
    and exponent (in decimal, closed by a comma, so that any modulus fits)."""
    letters = tuple((k - start, word[k]) for k in sorted(word))
    return chr(len(letters)) + "".join(f"{chr(k)}{e}," for k, e in letters), letters


@functools.lru_cache(maxsize=None)
def _coded_choices(p: int, i: int, j: int, support_bound: int) -> tuple:
    """(word, code, letters) for every word of `_word_choices(p, i, j,
    support_bound)`, in its order (see `_coded`)."""
    return tuple((word, *_coded(word, i)) for word in _word_choices(p, i, j, support_bound))


def _free_reps(lo: int, hi: int) -> list:
    """Orbit representatives of pairs under index translation by 2, ordered by
    (distance, start); every in-window pair is a translate of exactly one."""
    reps = []
    for d in range(2, hi - lo + 1):
        for i0 in (lo, lo + 1):
            if i0 + d <= hi:
                reps.append((i0, i0 + d))
    return reps


def _propagate(lo: int, hi: int, rep_words: dict) -> dict:
    """Spread each anchored representative word over its whole translation
    orbit within the window."""
    table = {}
    for (i0, j0), word in rep_words.items():
        if not word:
            continue
        shift = 0
        while j0 + shift <= hi:
            table[(i0 + shift, j0 + shift)] = {pos + shift: e for pos, e in word.items()}
            shift += 2
    return table


def _plan(lo: int, checks) -> tuple:
    """The checks of a window starting at lo as the memo looks them up: (s,
    shape) for each, where s is the parity of its lowest index i relative to
    lo and its shape is the check minus i.  On a shift-invariant table a
    check and its translates by 2 agree, so each (s, shape) is kept once."""
    return tuple(
        dict.fromkeys(((check[-1] - lo) & 1, tuple(k - check[-1] for k in check)) for check in checks)
    )


@functools.lru_cache(maxsize=None)
def _window_plan(lo: int, hi: int) -> tuple:
    """Every overlap check of [lo, hi], planned by `_plan`."""
    return _plan(lo, zsystem.overlap_checks(lo, hi))


class _OrbitReads:
    """The crossing words of a shift-invariant table on [i, i + n], moved to
    [0, n]: the word of the pair (c, l) is the orbit word words[c & 1][l - c]
    (letters relative to the start) moved to start at c.  `slots` lists the
    slot (s, d) of each first read, in order; a pair at distance 1 has no
    word and reads nothing."""

    __slots__ = ("words", "slots", "got")

    def __init__(self, words):
        self.words = words
        self.slots = []
        self.got = {}

    def get(self, pair, default):
        got = self.got.get(pair)
        if got is None:
            c, l = pair
            if l - c < 2:
                got = default
            else:
                slot = (c & 1, l - c)
                if slot not in self.slots:
                    self.slots.append(slot)
                got = tuple((c + k, e) for k, e in self.words[c & 1][l - c])
            self.got[pair] = got
        return got


class OverlapMemo:
    """Whether overlap checks fail on shift-invariant tables: one decision
    tree per (p, check shape), the shape being the check minus its lowest
    index i.  An internal node is a tuple (s, d, branches) for the orbit
    slot that collection reads next, the pairs at distance d whose start
    has parity s relative to i, and its branches map that orbit word's code
    to the next node; a leaf is a bool, true when the check fails.
    Collection is deterministic, so the slot read next depends only on the
    words read so far, and a recorded path that disagrees with the tree is
    an internal error.  `len` is the number of leaves."""

    __slots__ = ("trees", "leaves")

    def __init__(self):
        self.trees = {}  # p -> {shape: tree}
        self.leaves = 0

    def __len__(self) -> int:
        return self.leaves

    def clear(self):
        self.trees.clear()
        self.leaves = 0

    def run(self, p: int, shape: tuple, codes, words) -> bool:
        """Whether the check of this shape fails, by `overlap_violation` on the
        window [0, shape[0]] read from the orbit words (codes[s][d] and
        words[s][d] are those of slot (s, d)), inserted on the path of the
        slots the run reads.  The window takes the generic fold on an empty
        crossing memo, so every word the outcome depends on is read."""
        reads = _OrbitReads(words)
        window = WindowGroup.reading(p, 0, shape[0], reads)
        failed = zsystem.overlap_violation(window, [shape]) is not None
        self.insert(p, shape, [(s, d, codes[s][d]) for s, d in reads.slots], failed)
        return failed

    def insert(self, p: int, shape: tuple, path: list, failed: bool):
        """Add the leaf `failed` at the end of `path`, the (s, d, code) reads
        of one run in order.  Raises RuntimeError, and changes nothing, when
        the tree already reads another slot along the path, or already holds
        a node where the path ends."""
        branches, key = self.trees.setdefault(p, {}), shape
        at = 0
        while key in branches:
            node = branches[key]
            if at == len(path) or node.__class__ is not tuple or node[:2] != path[at][:2]:
                raise RuntimeError(
                    f"overlap memo: the reads {path} of check {shape} at p={p} "
                    "conflict with the recorded ones"
                )
            branches, key = node[2], path[at][2]
            at += 1
        node = failed
        for s, d, code in reversed(path[at:]):
            node = (s, d, {code: node})
        branches[key] = node
        self.leaves += 1


# memo leaves past which `_checks_pass` empties the overlap memo: deep
# searches and deep certificates meet ever new sub-tables, and a cache that
# only grows would hold them all
MEMO_LIMIT = 1 << 16


def _checks_pass(memo: OverlapMemo, p: int, plan, codes, words) -> bool:
    """Whether every planned check passes on the shift-invariant table with
    these orbit codes and words: codes[s][d] and words[s][d] are the
    `_coded` code and letters of the word of the pair (lo + s, lo + s + d)
    of its window [lo, hi].  Every check is first decided, where it can be,
    by walking its tree on the codes, and the first failing leaf answers with
    no check run.  Only then are the checks left undecided run through
    `OverlapMemo.run`, in plan order, each tree walked again just before its
    run: the two parities of one shape share a tree, so the run of one may
    have decided the other.  A memo that holds more than MEMO_LIMIT leaves
    is emptied first, so it never holds more than that plus the leaves of
    one call."""
    if len(memo) > MEMO_LIMIT:
        memo.clear()
    trees = memo.trees.setdefault(p, {})
    rows = ((codes[0], codes[1]), (codes[1], codes[0]))
    undecided = []
    for check in plan:
        s0, shape = check
        slots = rows[s0]
        node = trees.get(shape)
        while node.__class__ is tuple:
            s, d, branches = node
            node = branches.get(slots[s][d])
        if node is None:
            undecided.append(check)
        elif node:
            return False
    for s0, shape in undecided:
        slots = rows[s0]
        node = trees.get(shape)
        while node.__class__ is tuple:
            s, d, branches = node
            node = branches.get(slots[s][d])
        if node is None:
            node = memo.run(p, shape, slots, (words[s0], words[1 - s0]))
        if node:
            return False
    return True


def search_tables(p: int, lo: int, hi: int, support_bound: int, extend_depth: int = 1):
    """Enumerate all shift-invariant interior comm tables on the window, in a
    fixed lexicographic order; for each consistent one report its nilpotency
    class and whether some one-step widening stays consistent.

    Yields dicts {"table": ..., "class": ..., "extendable": ...}.  Every
    argument is checked before the first table is yielded; an extend_depth
    below 1 would certify nothing and is refused.  Each candidate is built
    into its WindowGroup, and its consistency is decided through the overlap
    memo (`_checks_pass`), from the codes and letters of its representative
    words, which are cached with the word choices; a window that passes
    keeps that outcome, no `overlap_witness`.  The call owns one memo
    for its candidates and their certificates; the memo is a cache, so no
    result depends on it.  The class is `nilpotency_class`, which forms no
    subgroup, so the search forms none.
    """
    if extend_depth < 1:
        raise ValueError(f"extension depth must be at least 1, got {extend_depth}")
    if p not in (2, 3, 5):
        raise ValueError(f"search supports p in (2, 3, 5), got {p}")
    if hi - lo + 1 > 8:
        raise ValueError(f"search window width is capped at 8, got {hi - lo + 1}")
    if support_bound < 0:
        raise ValueError("support bound must be nonnegative")
    reps = _free_reps(lo, hi)
    slots = [(i - lo, j - i) for i, j in reps]
    choice_lists = [_coded_choices(p, i, j, support_bound) for i, j in reps]
    plan = _window_plan(lo, hi)
    # every slot is set for each candidate, so the rows are reused
    codes = [[""] * (hi - lo + 1) for _ in range(2)]
    words = [[None] * (hi - lo + 1) for _ in range(2)]
    memo = OverlapMemo()
    for assignment in itertools.product(*choice_lists):
        rep_words = {}
        for rep, (s, d), (word, code, letters) in zip(reps, slots, assignment):
            rep_words[rep] = word
            codes[s][d] = code
            words[s][d] = letters
        wg = WindowGroup(p, lo, hi, _propagate(lo, hi, rep_words))
        if not _checks_pass(memo, p, plan, codes, words):
            continue
        wg.overlap_witness = None
        cls = nilpotency_class(wg)
        ext = extendable(wg, support_bound, extend_depth, memo)
        yield {"table": wg.to_json_dict(), "class": cls, "extendable": ext}


def extendable(wg: WindowGroup, support_bound: int, depth: int = 1, memo=None) -> bool:
    """Whether the table admits a chain of `depth` consistent shift-invariant
    one-step widenings to [lo-1, hi+1], [lo-2, hi+2], ...; a depth below 1
    would certify nothing and is refused, and so is a table that is not
    shift-invariant (`_consistent_extensions`).  `memo` is an `OverlapMemo`
    to share; without one the call owns its own."""
    if depth < 1:
        raise ValueError(f"extension depth must be at least 1, got {depth}")
    if memo is None:
        memo = OverlapMemo()
    for ext in _consistent_extensions(wg, support_bound, memo):
        if depth == 1 or extendable(ext, support_bound, depth - 1, memo):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _extension_plan(lo: int, hi: int) -> tuple:
    """What a widening of [lo, hi] to [lo - 1, hi + 1] needs: the orbit
    representatives of the wider window that meet [lo, hi], each with the
    shift to its first translate there; the free ones, in `_free_reps`
    order; and, per backtracking level, the planned overlaps with a boundary
    index (interior ones hold when the table on [lo, hi] is consistent),
    each at the first level where every word it may collect through is
    fixed."""
    lo2, hi2 = lo - 1, hi + 1
    anchored, new_reps = [], []
    for i0, j0 in _free_reps(lo2, hi2):
        shift = 2 if i0 < lo else 0
        if j0 + shift <= hi:
            anchored.append(((i0, j0), shift))
        else:
            new_reps.append((i0, j0))

    def touches(rep, a, b):
        """Whether some translate of the representative lies inside [a, b]."""
        i0, j0 = rep
        return any(a <= i0 + s and j0 + s <= b for s in range(0, hi2 - j0 + 1, 2))

    levels = [[] for _ in range(len(new_reps) + 1)]
    for check in zsystem.overlap_checks(lo2, hi2):
        if check[-1] == lo2 or check[0] == hi2:
            last = max(
                (idx for idx, rep in enumerate(new_reps) if touches(rep, check[-1], check[0])),
                default=-1,
            )
            levels[last + 1].append(check)
    return tuple(anchored), tuple(new_reps), tuple(_plan(lo2, level) for level in levels)


def _consistent_extensions(wg: WindowGroup, support_bound: int, memo=None):
    """Yield consistent shift-invariant widenings of the table to
    [lo-1, hi+1], via backtracking over the newly free orbit representatives
    with incremental overlap pruning through the overlap memo (a fresh one
    without `memo`).

    A table that is not shift-invariant is refused: no shift-invariant
    widening restricts to it, and the widenings built from its orbit
    representatives would be those of another table.  Every orbit that meets
    the window is anchored on the word of its first translate there.  A node
    is decided from the codes and letters of the orbit words alone, and only
    a leaf that is yielded is built into a window.  A leaf restricts to the
    table, and its other overlaps passed, so it has no `overlap_witness`
    when the table has none."""
    violation = shift_violation(wg, 2)
    if violation is not None:
        i, j = violation["pair"]
        raise ValueError(
            f"table is not shift-invariant: the word of ({i}, {j}) shifted by 2"
            f" differs from the word of ({i + 2}, {j + 2})"
        )
    p, lo, hi = wg.p, wg.lo, wg.hi
    lo2, hi2 = lo - 1, hi + 1
    anchored, new_reps, levels = _extension_plan(lo, hi)

    rep_words = {}
    codes = [[""] * (hi2 - lo2 + 1) for _ in range(2)]
    words = [[None] * (hi2 - lo2 + 1) for _ in range(2)]
    for (i0, j0), shift in anchored:
        word = {k - shift: e for k, e in wg.comm.get((i0 + shift, j0 + shift), {}).items()}
        # collection on the widenings would refuse such a word
        if any(not i0 < k < j0 for k in word):
            raise ValueError(zsystem.NOT_INTERIOR)
        if word:
            rep_words[(i0, j0)] = word
        codes[i0 - lo2][j0 - i0], words[i0 - lo2][j0 - i0] = _coded(word, i0)
    choice_lists = [_coded_choices(p, i, j, support_bound) for i, j in new_reps]
    if memo is None:
        memo = OverlapMemo()

    # the walker is handed itself rather than reading its own name from this
    # scope: a function whose closure holds itself is a reference cycle,
    # which would keep the table and the memo alive until the cyclic garbage
    # collector runs
    def rec(rec, idx: int):
        if not _checks_pass(memo, p, levels[idx], codes, words):
            return
        if idx == len(new_reps):
            ext = WindowGroup(p, lo2, hi2, _propagate(lo2, hi2, rep_words))
            if wg.overlap_witness is None:
                ext.overlap_witness = None
            yield ext
            return
        rep = new_reps[idx]
        s, d = rep[0] - lo2, rep[1] - rep[0]
        for word, code, letters in choice_lists[idx]:
            rep_words[rep] = word
            codes[s][d] = code
            words[s][d] = letters
            yield from rec(rec, idx + 1)
        del rep_words[rep]

    yield from rec(rec, 0)

"""Group-theoretic analysis on window groups: subgroup calculus, the lower
central series and nilpotency class, lower cutoff, the abelian criterion,
shift-invariant closures, lemma property checks, and the exhaustive search
over shift-invariant commutation tables.

A subgroup is the set of its packed elements (`WindowGroup.pack`) that
`zsystem.closure` enumerates by cosets (windows at desk scale are small):
its order is `len`, a proper subgroup is `<`, and a vector v is a member
when `wg.pack(v)` is in the set.  One rule, `_commutator_rounds`, gives the
class, the series and normal closures from commutators with the window
generators: the class forms no subgroup, and each series term or normal
closure is one closure of the rounds; the tests check each against
subgroups built from the elements.  Every function here that reads the
table as a group refuses an inconsistent one (`refuse_inconsistent`); the
search stores its overlap outcome on each window it builds.

Between a candidate and its certificate a shift-invariant table is only its
orbit rows: words[s][d] holds the letters of the word of the pairs at
distance d whose start has parity s relative to the window's lo.  One
backtracking routine, `_walk`, sets the rows' slots level by level.  The
search walks its window's orbit representatives with no check on the way
and builds each leaf into its window (`_propagate`) to decide it; a
certificate widens the table's rows and walks the new representatives with
the overlaps that read them, so it builds no window.  A subtree of that
walk that dies returns the new slots its checks read, and when they miss
the slot its parent sets, the parent's other choices are skipped: they
would die the same way (conflict-directed backjumping).  Both decide
consistency with the complete overlap test `zsystem.overlap_violation`
only.  A check with lowest index i reads a shift-invariant table only
through orbit words, each in a slot (parity relative to i, distance), and
its outcome is fixed by p, its shape and the words that its collection
looks up.  One `OverlapMemo` keeps the outcomes as a decision tree per
(p, check shape) on those words.  At a miss the check runs once on the
sub-window [0, n] read from the orbit words
(`zsystem.WindowGroup.reading`), and the slots it reads become a path of
the tree.  A table is first decided from the leaves the trees
already hold, so a check that fails there answers before any other check
runs; only then do the undecided checks run, in plan order.  The memo
serves a whole `search_tables` call, its candidates and every certificate
under it, so a check that recurs in translate, or on tables that differ
only in words it does not read, is collected once; a direct `extendable`
call owns a memo of its own.  The exhaustive closure stays in
`zsystem.verify_zs_axioms`, the `axioms` report.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple

from . import zsystem
from .matgroup import commutator as mat_commutator
from .zsystem import CapExceeded, WindowGroup, closure, report_entry, shift_violation

# not called here since search decides consistency with overlap_violation;
# kept as a module name because the benchmark's layer tracer patches it
from .zsystem import verify_zs_axioms  # noqa: F401

CutoffResult = namedtuple("CutoffResult", ["value", "witness"])


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
    error).  Refuses an inconsistent table (`refuse_inconsistent`), and
    raises CapExceeded on a round of more than `zsystem.DEFAULT_CAP`."""
    zsystem.refuse_inconsistent(wg)
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


def normal_closure(wg: WindowGroup, gen_vecs, cap=None) -> set:
    """Smallest subgroup containing the seeds and closed under conjugation by
    the window generators (hence by the whole group), as packed elements:
    the closure of every round of `_commutator_rounds`, the seeds and their
    iterated commutators with the window generators, which is normal with
    no test."""
    return closure(wg, itertools.chain(*_commutator_rounds(wg, gen_vecs)), cap)


def lower_central_series(wg: WindowGroup, cap=None) -> list:
    """[X, X'=gamma_2, gamma_3, ...] down to the trivial subgroup, each term
    after the first the packed set that `closure` returns.  The first term
    stands for the whole group and is not materialized.  With S_1, S_2, ...
    the rounds of the table words (`_commutator_rounds`), gamma_(k+1) is
    generated by the rounds from S_k on; the rounds are formed once, and each
    term is one closure."""
    rounds = _commutator_rounds(wg, _table_words(wg))
    terms = [closure(wg, itertools.chain(*rounds[k:]), cap) for k in range(len(rounds) + 1)]
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
    """(packed, report): the subgroup generated by every in-window translate
    of the two seeds, as the packed set of `closure`, and the report that
    `shiftinv` prints: its order, the translates, and the parity split of
    the start indices of its nontrivial elements."""
    gens = []
    for vec in (tuple(a_vec), tuple(b_vec)):
        support = [idx for idx, e in zip(wg.indices(), vec) if e]
        if not support:
            continue
        k = -((support[0] - wg.lo) // 2)  # least k keeping the support above lo
        while support[-1] + 2 * k <= wg.hi:
            gens.append(wg.shift_vec(vec, k))
            k += 1
    packed = closure(wg, gens, cap)
    identity = wg.pack(wg.identity_vec)
    starts = {wg.stats_vec(v).start for v in packed if v != identity}
    report = {
        "order": len(packed),
        "generators": [list(v) for v in gens],
        "even_start_nonempty": any(s % 2 == 0 for s in starts),
        "odd_start_nonempty": any(s % 2 == 1 for s in starts),
        "start_indices": sorted(starts),
    }
    return packed, report


# bilinearity trials past which lemma_checks refuses to run: a trial forms
# three commutators and two products, and a quotient of its two sides only
# when they differ, which needs class 5 or more.  10^5 trials take about
# 0.8 s on the unitary p=5 [0, 7] window, a central one, where the
# commutators take their closed form and no quotient is formed (2-core
# x86-64 host, Python 3.11)
TRIALS_BUDGET = 10**5


def _below(rng: random.Random, n: int):
    """The integers that successive rng.randrange(n) calls return, for
    n >= 1, drawn as CPython draws them: n.bit_length() random bits, drawn
    again while they are n or more, with no call of randrange per draw.
    Each is drawn only when it is taken, so draws taken in turn from several
    such streams of one rng are the draws of the calls in that order."""
    getrandbits, k = rng.getrandbits, n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


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
    derived = [tuple(v) for v in sorted(series[1])]
    # gamma_4, the trivial last term when the series is shorter
    gamma4 = series[min(3, len(series) - 1)]
    witness = None
    # the draws of rng.randrange(len(derived)) and rng.randrange(p), in turn
    picks, entries = _below(rng, len(derived)), _below(rng, wg.p)
    width, mul, comm = wg.width, wg.mul_vec, wg.comm_vec
    for _ in range(trials):
        y = derived[next(picks)]
        y2 = derived[next(picks)]
        x = tuple(itertools.islice(entries, width))
        lhs = comm(mul(y, y2), x)
        base = mul(comm(y, x), comm(y2, x))
        if lhs != base and wg.pack(mul(wg.inv_vec(base), lhs)) not in gamma4:
            witness = {"y": list(y), "y2": list(y2), "x": list(x)}
            break
    checks["commutator_bilinearity"] = report_entry(witness, trials=trials)

    witness = next(
        (
            {"term_order": len(term), "image_order": len(image)}
            for term, image in zip(series[1:], series[2:])
            if not image < term
        ),
        None,
    )
    # the whole group itself also shrinks: [X, X] is proper
    if witness is None and len(series[1]) >= wg.order:
        witness = {"term_order": wg.order, "image_order": len(series[1])}
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
def _word_choices(p: int, d: int, support_bound: int) -> tuple:
    """The letters of every interior word of a pair at distance d with at
    most support_bound nonzero entries, in lexicographic order of the
    exponent tuple over the offsets 1 .. d-1: each word is its ascending
    (offset from the pair's start, exponent) letters.  Built once per
    argument tuple and shared by every caller."""
    words = [
        tuple(zip(support, exps))
        for n in range(min(support_bound, d - 1) + 1)
        for support in itertools.combinations(range(1, d), n)
        for exps in itertools.product(range(1, p), repeat=n)
    ]
    words.sort(key=lambda letters: tuple(dict(letters).get(k, 0) for k in range(1, d)))
    return tuple(words)


def _free_reps(lo: int, hi: int) -> list:
    """Orbit representatives of pairs under index translation by 2, ordered by
    (distance, start); every in-window pair is a translate of exactly one."""
    reps = []
    for d in range(2, hi - lo + 1):
        for i0 in (lo, lo + 1):
            if i0 + d <= hi:
                reps.append((i0, i0 + d))
    return reps


def _orbit_rows(wg: WindowGroup) -> list:
    """The orbit rows of a shift-invariant table: words[s][d] is the letters
    of the word of the pair (lo + s, lo + s + d), for s in (0, 1) and each
    such pair at distance d >= 2 in the window; the other entries are
    None."""
    words = [[None] * wg.width for _ in range(2)]
    for i, j in _free_reps(wg.lo, wg.hi):
        word = wg.comm.get((i, j), {})
        words[i - wg.lo][j - i] = tuple((k - i, word[k]) for k in sorted(word))
    return words


def _propagate(lo: int, hi: int, slots, words) -> dict:
    """The table on [lo, hi] of the orbit words of the given slots: the word
    words[s][d] of each slot (s, d) on every pair (lo + s + 2t, lo + s + 2t
    + d) inside the window."""
    table = {}
    for s, d in slots:
        letters = words[s][d]
        if letters:
            for i in range(lo + s, hi - d + 1, 2):
                table[(i, i + d)] = {i + k: e for k, e in letters}
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
    has parity s relative to i, and its branches map that orbit word's
    letters to the next node; a leaf is a bool, true when the check fails.
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

    def run(self, p: int, shape: tuple, words) -> bool:
        """Whether the check of this shape fails, by `overlap_violation` on the
        window [0, shape[0]] read from the orbit words (words[s][d] is that
        of slot (s, d)), inserted on the path of the slots the run reads.
        The window takes the generic fold on an empty crossing memo, so every
        word the outcome depends on is read."""
        reads = _OrbitReads(words)
        window = WindowGroup.reading(p, 0, shape[0], reads)
        failed = zsystem.overlap_violation(window, [shape]) is not None
        self.insert(p, shape, [(s, d, words[s][d]) for s, d in reads.slots], failed)
        return failed

    def insert(self, p: int, shape: tuple, path: list, failed: bool):
        """Add the leaf `failed` at the end of `path`, the (s, d, letters)
        reads of one run in order.  Raises RuntimeError, and changes
        nothing, when the tree already reads another slot along the path, or
        already holds a node where the path ends."""
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
        for s, d, letters in reversed(path[at:]):
            node = (s, d, {letters: node})
        branches[key] = node
        self.leaves += 1


# memo leaves past which `_checks_pass` empties the overlap memo: deep
# searches and deep certificates meet ever new sub-tables, and a cache that
# only grows would hold them all
MEMO_LIMIT = 1 << 16


def _checks_pass(memo: OverlapMemo, p: int, plan, words) -> bool:
    """Whether every planned check passes on the shift-invariant table with
    these orbit rows (`_orbit_rows`): words[s][d] is the letters of the word
    of the pair (lo + s, lo + s + d) of its window [lo, hi].  Every check is
    first decided, where it can be, by walking its tree on the words, and
    the first failing leaf answers with no check run.  Only then are the
    checks left undecided run through `OverlapMemo.run`, in plan order, each
    tree walked again just before its run: the two parities of one shape
    share a tree, so the run of one may have decided the other.  A memo that
    holds more than MEMO_LIMIT leaves is emptied first, so it never holds
    more than that plus the leaves of one call."""
    if len(memo) > MEMO_LIMIT:
        memo.clear()
    trees = memo.trees.setdefault(p, {})
    rows = ((words[0], words[1]), (words[1], words[0]))
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
            node = memo.run(p, shape, slots)
        if node:
            return False
    return True


def _walk(memo: OverlapMemo, p: int, levels, reads, slots, choice_lists, words, idx: int = 0):
    """The one backtracking routine: set the orbit slots slots[idx:] of the
    rows `words` to each of their choices of letters in turn, the last slot
    varying fastest, as `itertools.product` does, and yield at every leaf,
    while the rows hold its words.  A node at level idx, which has set the
    slots before idx, goes on only when `_checks_pass` passes its planned
    checks levels[idx], and an empty plan passes with no call; those checks
    read no slot set at idx or after, only the indices in reads[idx].

    A subtree that yields no leaf returns its conflict set, the indices of
    the slots whose letters doomed it; one that yields a leaf returns None.
    A node that fails its checks returns reads[idx].  A node that sets slot
    idx returns at once, skipping its remaining choices, the set of a child
    that lacks idx; when every child fails with idx in its set, it returns
    the union of their sets without idx.  A node under which a leaf was
    yielded never skips, so every leaf is still met, in the same order.
    This is sound because sibling nodes differ only in slot idx, and the
    outcome of a check depends only on the words it reads (the memo's own
    invariant): a subtree that died on slots other than idx dies under
    every choice at idx."""
    plan = levels[idx]
    if plan and not _checks_pass(memo, p, plan, words):
        return reads[idx]
    if idx == len(slots):
        yield
        return None
    s, d = slots[idx]
    row = words[s]
    conflict = set()
    for letters in choice_lists[idx]:
        row[d] = letters
        dead = yield from _walk(memo, p, levels, reads, slots, choice_lists, words, idx + 1)
        if dead is None:
            conflict = None
        elif conflict is not None:
            if idx not in dead:
                return dead
            conflict |= dead
    if conflict is not None:
        conflict.discard(idx)
    return conflict


def search_tables(p: int, lo: int, hi: int, support_bound: int, extend_depth: int = 1):
    """Enumerate all shift-invariant interior comm tables on the window, in a
    fixed lexicographic order; for each consistent one report its nilpotency
    class and whether it admits a chain of `extend_depth` consistent widenings.

    Yields dicts {"table": ..., "class": ..., "extendable": ...}.  Every
    argument is checked before the first table is yielded; an extend_depth
    below 1 would certify nothing and is refused.  The candidates are the
    leaves of `_walk` over the orbit representatives with no check at any
    level, so with empty read sets (no subtree dies), and each one is
    built into its WindowGroup from its orbit rows (`_propagate`) before
    its consistency is decided through the overlap memo (`_checks_pass`
    on every check of the window); a window that passes keeps that
    outcome, no `overlap_witness`.  The call owns one memo for its
    candidates and their certificates; the memo is a cache, so no result
    depends on it.  The class is `nilpotency_class`, which forms no
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
    slots = [(i - lo, j - i) for i, j in _free_reps(lo, hi)]
    choice_lists = [_word_choices(p, d, support_bound) for _, d in slots]
    plan = _window_plan(lo, hi)
    words = [[None] * (hi - lo + 1) for _ in range(2)]
    memo = OverlapMemo()
    flat = ((),) * (len(slots) + 1)
    for _ in _walk(memo, p, flat, (frozenset(),) * len(flat), slots, choice_lists, words):
        wg = WindowGroup(p, lo, hi, _propagate(lo, hi, slots, words))
        if not _checks_pass(memo, p, plan, words):
            continue
        wg.overlap_witness = None
        cls = nilpotency_class(wg)
        ext = extendable(wg, support_bound, extend_depth, memo)
        yield {"table": wg.to_json_dict(), "class": cls, "extendable": ext}


def extendable(wg: WindowGroup, support_bound: int, depth: int = 1, memo=None) -> bool:
    """Whether the table admits a chain of `depth` consistent shift-invariant
    one-step widenings to [lo-1, hi+1], [lo-2, hi+2], ...

    The table is refused with ValueError, in this order, when the depth is
    below 1 (it would certify nothing), the support bound is negative, the
    table is not shift-invariant (no shift-invariant widening restricts to
    it), it is not strictly interior (the collector's error, which the
    overlap test raises) or it is inconsistent (`refuse_inconsistent`: the
    walk checks only the overlaps that read a new slot, so an inconsistent
    table would pass).  Then its orbit rows are read once
    (`_orbit_rows`), and the widenings are walked on rows alone (`_extends`):
    no window is built.  `memo` is an `OverlapMemo` to share; without one
    the call owns its own.

    The answer False refutes; True only says that `depth` widenings exist.
    A finite proof that a table extends forever rests on a locality lemma.
    Let a shift-invariant table have every word past distance R empty, and
    take an overlap check (k, j, i), i < j < k, of span k - i > 2R.  Then
    k - j > R or j - i > R.  If k - j > R, x_k commutes with x_j, with x_i
    and with every letter between them, so both sides collect to the normal
    form of x_j x_i followed by x_k; if j - i > R the same holds with x_i
    on the other side.  A power check (j, i) with j - i > R holds
    trivially.  So every check that can fail has span at most 2R, and up to
    a translation by 2 it lies in a window of width 2R + 2.  A table that,
    with its words past R empty, passes the overlap test on such a window
    is consistent on every window: it is the window of an infinite
    shift-invariant consistent table, and extendable at every depth.  The
    tests check the two certificates against each other."""
    if depth < 1:
        raise ValueError(f"extension depth must be at least 1, got {depth}")
    if support_bound < 0:
        raise ValueError("support bound must be nonnegative")
    violation = shift_violation(wg, 2)
    if violation is not None:
        i, j = violation["pair"]
        raise ValueError(
            f"table is not shift-invariant: the word of ({i}, {j}) shifted by 2"
            f" differs from the word of ({i + 2}, {j + 2})"
        )
    zsystem.refuse_inconsistent(wg)
    if memo is None:
        memo = OverlapMemo()
    return _extends(memo, wg.p, wg.lo, wg.hi, _orbit_rows(wg), support_bound, depth)


def _extends(memo: OverlapMemo, p: int, lo: int, hi: int, words, support_bound: int, depth: int):
    """Whether the consistent shift-invariant table with the orbit rows
    `words` on [lo, hi] has a chain of `depth` consistent widenings.  Letters
    are relative to the start of a pair, so slot (s, d) on [lo, hi] is slot
    (1 - s, d) on [lo - 1, hi + 1]: the widened rows are the rows swapped
    and lengthened by two, and `_walk` fills the new representatives of
    `_extension_plan` level by level, skipping by its read sets the choices
    that cannot matter.  A leaf restricts to the table and passes every
    overlap that reads a new slot, so it is consistent; while depth is
    above 1 it is widened in turn."""
    wide = [words[1] + [None, None], words[0] + [None, None]]
    slots, levels, reads = _extension_plan(lo, hi)
    choice_lists = [_word_choices(p, d, support_bound) for _, d in slots]
    return any(
        depth == 1 or _extends(memo, p, lo - 1, hi + 1, wide, support_bound, depth - 1)
        for _ in _walk(memo, p, levels, reads, slots, choice_lists, wide)
    )


@functools.lru_cache(maxsize=None)
def _extension_plan(lo: int, hi: int) -> tuple:
    """What a widening of [lo, hi] to [lo - 1, hi + 1] fixes: (slots,
    levels, reads).  `slots` are the slots (s, d) of the wider window,
    relative to lo - 1, of its orbit representatives with no translate
    inside [lo, hi] (the new ones), in `_free_reps` order.  `levels[j]`
    holds the planned overlaps of backtracking level j, and `reads[j]` the
    indices of the new slots that they may read.  A check is kept exactly
    when some translate of a new representative lies inside its span (it
    touches that slot), and goes at the first level where every new slot
    it touches is fixed; so `levels[0]` is empty.  A check that touches no
    new slot spans hi - lo or less: at span hi - lo it starts at lo, since
    the slot of the pairs (lo - 1, hi - 1) and (lo + 1, hi + 1) is new, so
    it lies inside [lo, hi]; below that span, it or its translate by 2
    does.  On the
    shift-invariant widening it reads the same words as that check inside
    [lo, hi], so it holds when the table on [lo, hi] is consistent."""
    lo2, hi2 = lo - 1, hi + 1
    # new: the first translate inside [lo, hi] (moved by 2 when it starts at lo2) ends past hi
    new_reps = [(i0, j0) for i0, j0 in _free_reps(lo2, hi2) if j0 + 2 * (i0 < lo) > hi]

    def touches(rep, a, b):
        """Whether some translate of the representative lies inside [a, b]."""
        i0, j0 = rep
        return any(a <= i0 + s and j0 + s <= b for s in range(0, hi2 - j0 + 1, 2))

    levels = [[] for _ in range(len(new_reps) + 1)]
    reads = [set() for _ in levels]
    for check in zsystem.overlap_checks(lo2, hi2):
        touched = {idx for idx, rep in enumerate(new_reps) if touches(rep, check[-1], check[0])}
        if touched:
            last = max(touched)
            levels[last + 1].append(check)
            reads[last + 1] |= touched
    slots = tuple((i0 - lo2, j0 - i0) for i0, j0 in new_reps)
    return slots, tuple(_plan(lo2, level) for level in levels), tuple(map(frozenset, reads))

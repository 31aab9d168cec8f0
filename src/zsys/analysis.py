"""Group-theoretic analysis on window groups: subgroup calculus, lower central
and derived series, nilpotency class, lower cutoff, the abelian criterion,
shift-invariant closures, lemma property checks, and the exhaustive search
over shift-invariant commutation tables.

Subgroups are materialized element sets (windows at desk scale are small);
series terms are generated through normal closures of generator commutators,
which agrees with the brute-force double-loop definition and is checked
against it in the tests.

The search and its extension certificates decide consistency with the
complete overlap test `zsystem.overlap_violation` only (the extension runs
the boundary overlaps level by level while it backtracks), and spread every
representative word over its translation orbit with `_propagate`.  The
exhaustive closure stays in `zsystem.verify_zs_axioms`, the `axioms` report.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from . import zsystem
from .matgroup import commutator as mat_commutator
from .zsystem import CapExceeded, WindowGroup, closure, shift_violation

# not called here since search decides consistency with overlap_violation;
# kept as a module name because the benchmark's layer tracer patches it
from .zsystem import verify_zs_axioms  # noqa: F401

CutoffResult = namedtuple("CutoffResult", ["value", "witness"])


class Subgroup:
    """A subgroup of a window group as an explicit, enumerated element set."""

    def __init__(self, window: WindowGroup, generators, elements):
        self.window = window
        self.generators = tuple(generators)
        self.elements = frozenset(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, vec) -> bool:
        return tuple(vec) in self.elements

    def is_trivial(self) -> bool:
        return self.order == 1

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __lt__(self, other: "Subgroup") -> bool:
        return self.elements < other.elements

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.window!r})"


def generate(wg: WindowGroup, gen_vecs, cap=None) -> Subgroup:
    """BFS closure of the generating vectors."""
    gens = [tuple(v) for v in gen_vecs]
    return Subgroup(wg, gens, closure(wg, gens, cap))


def whole_group(wg: WindowGroup, cap=None) -> Subgroup:
    return generate(wg, [wg.gen_vec(i) for i in wg.indices()], cap)


def normal_closure(wg: WindowGroup, gen_vecs, cap=None) -> Subgroup:
    """Smallest subgroup containing the seeds and closed under conjugation by
    the window generators (hence by the whole group)."""
    seeds = [tuple(v) for v in gen_vecs]
    gens = {v for v in seeds if v != wg.identity_vec}
    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    while True:
        elements = closure(wg, sorted(gens), cap)
        new = set()
        for v in sorted(gens):
            for g in window_gens:
                w = wg.conj_vec(v, g)
                if w not in elements:
                    new.add(w)
        if not new:
            return Subgroup(wg, sorted(gens), elements)
        gens |= new


def commutator_subgroup(wg: WindowGroup, a: Subgroup, b: Subgroup, cap=None) -> Subgroup:
    """Brute-force [A, B]: all commutators over the two element sets, closed."""
    comms = {
        wg.comm_vec(x, y) for x in a.elements for y in b.elements
    } - {wg.identity_vec}
    return generate(wg, sorted(comms), cap)


def _commutator_normal_closure(wg, a_gens, b_gens, cap=None) -> Subgroup:
    """[<A>, <B>] as the normal closure of pairwise generator commutators;
    valid when the result is normalized by the window group (always the case
    for terms of the lower central and derived series)."""
    comms = {wg.comm_vec(x, y) for x in a_gens for y in b_gens} - {wg.identity_vec}
    return normal_closure(wg, sorted(comms), cap)


def derived_subgroup(wg: WindowGroup, cap=None) -> Subgroup:
    gens = [wg.gen_vec(i) for i in wg.indices()]
    return _commutator_normal_closure(wg, gens, gens, cap)


def lower_central_series(wg: WindowGroup, cap=None) -> list:
    """[X, X'=gamma_2, gamma_3, ...] down to the trivial subgroup.  The first
    term stands for the whole group and is not materialized."""
    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    series = [None]  # placeholder for the whole group
    current = derived_subgroup(wg, cap)
    series.append(current)
    steps = 0
    while not current.is_trivial():
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("lower central series does not descend; table is inconsistent")
        current = _commutator_normal_closure(wg, current.sorted_elements(), window_gens, cap)
        series.append(current)
    return series


def derived_series(wg: WindowGroup, cap=None) -> list:
    series = [None]
    current = derived_subgroup(wg, cap)
    series.append(current)
    steps = 0
    while not current.is_trivial():
        steps += 1
        if steps > wg.width + 1:
            raise RuntimeError("derived series does not descend; table is inconsistent")
        gens = current.sorted_elements()
        comms = {wg.comm_vec(x, y) for x in gens for y in gens} - {wg.identity_vec}
        nxt = Subgroup(wg, sorted(comms), closure(wg, sorted(comms), cap))
        if not nxt.elements < current.elements and not nxt.is_trivial():
            raise RuntimeError("derived series does not descend; table is inconsistent")
        current = nxt
        series.append(current)
    return series


def nilpotency_class(wg: WindowGroup, cap=None) -> int:
    """Length of the lower central series to triviality (1 for abelian)."""
    return len(lower_central_series(wg, cap)) - 1


def lower_cutoff(target, bound: int) -> CutoffResult:
    """Least distance |m - n| with a nontrivial commutator, scanned in
    increasing distance; None value means abelian within the bound.

    For a WindowGroup the comm table is scanned.  For a matrix example the
    commutator [u_n, u_{n+d}] is computed directly for n in {0, 1}, which
    covers all pairs by shift invariance.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if isinstance(target, WindowGroup):
        for d in range(1, bound + 1):
            for i in range(target.lo, target.hi + 1 - d):
                if target.comm.get((i, i + d)):
                    return CutoffResult(d, (i, i + d))
        return CutoffResult(None, None)
    for d in range(1, bound + 1):
        for n in (0, 1):
            c = mat_commutator(target.u(n, 1), target.u(n + d, 1))
            if not c.is_identity():
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
    starts = {wg.stats_vec(v).start for v in sub.elements if v != wg.identity_vec}
    info = {
        "even_start_nonempty": any(s % 2 == 0 for s in starts),
        "odd_start_nonempty": any(s % 2 == 1 for s in starts),
        "start_indices": sorted(starts),
    }
    return sub, info


def lemma_checks(wg: WindowGroup, cap=None, trials: int = 50, seed: int = 0) -> dict:
    """Window-scale property checks: cutoff alternation, bilinearity of
    commutation modulo the second lower-central term, strict shrinking of
    [V, X] inside each series term, and the abelian criterion.

    The abelian criterion passes when abelian == unit-shift-invariant, or when
    every noncommuting pair lies at the maximal distance hi - lo (the lower
    cutoff is hi - lo).  There the unit-shift predicate is vacuously true and
    the window cannot decide the criterion; such an entry carries
    "vacuous_at_boundary": true."""
    rng = random.Random(seed)
    checks = {}

    cut = lower_cutoff(wg, max(wg.width - 1, 1))
    entry = {"pass": True, "cutoff": cut.value}
    if cut.value is not None:
        d = cut.value
        even_hit = [
            (i, i + d)
            for i in range(wg.lo, wg.hi + 1 - d)
            if i % 2 == 0 and wg.comm.get((i, i + d))
        ]
        odd_hit = [
            (i, i + d)
            for i in range(wg.lo, wg.hi + 1 - d)
            if i % 2 == 1 and wg.comm.get((i, i + d))
        ]
        entry["pass"] = not (even_hit and odd_hit)
        entry["even_start_pairs"] = even_hit
        entry["odd_start_pairs"] = odd_hit
    checks["cutoff_alternation"] = entry

    window_gens = [wg.gen_vec(i) for i in wg.indices()]
    try:
        derived = derived_subgroup(wg, cap)
        yx = _commutator_normal_closure(wg, derived.sorted_elements(), window_gens, cap)
        yxx = _commutator_normal_closure(wg, yx.sorted_elements(), window_gens, cap)
        ok = True
        witness = None
        dsorted = derived.sorted_elements()
        for _ in range(trials):
            y = dsorted[rng.randrange(len(dsorted))]
            y2 = dsorted[rng.randrange(len(dsorted))]
            x = tuple(rng.randrange(wg.p) for _ in range(wg.width))
            lhs = wg.comm_vec(wg.mul_vec(y, y2), x)
            base = wg.mul_vec(wg.comm_vec(y, x), wg.comm_vec(y2, x))
            if wg.mul_vec(wg.inv_vec(base), lhs) not in yxx.elements:
                ok = False
                witness = {"y": list(y), "y2": list(y2), "x": list(x)}
                break
        checks["commutator_bilinearity"] = {"pass": ok, "trials": trials}
        if witness:
            checks["commutator_bilinearity"]["witness"] = witness
    except CapExceeded:
        raise
    except RuntimeError as err:
        checks["commutator_bilinearity"] = {"pass": False, "error": str(err)}

    try:
        series = lower_central_series(wg, cap)
        derived = series[1]
        ok = True
        witness = None
        for term in series[1:]:
            if term.is_trivial():
                continue
            image = _commutator_normal_closure(wg, term.sorted_elements(), window_gens, cap)
            if not (image.elements < term.elements):
                ok = False
                witness = {"term_order": term.order, "image_order": image.order}
                break
        # the whole group itself also shrinks: [X, X] is proper
        if ok and not derived.is_trivial() and derived.order >= wg.order:
            ok = False
            witness = {"term_order": wg.order, "image_order": derived.order}
        checks["commutator_image_proper"] = {"pass": ok}
        if witness:
            checks["commutator_image_proper"]["witness"] = witness
    except CapExceeded:
        raise
    except RuntimeError as err:
        checks["commutator_image_proper"] = {"pass": False, "error": str(err)}

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


def _word_choices(p: int, i: int, j: int, support_bound: int) -> list:
    """All interior words for pair (i, j) with at most support_bound nonzero
    entries, in lexicographic order of the exponent tuple."""
    positions = list(range(i + 1, j))
    out = []
    for tup in itertools.product(range(p), repeat=len(positions)):
        nonzero = [(k, e) for k, e in zip(positions, tup) if e]
        if len(nonzero) <= support_bound:
            out.append(dict(nonzero))
    return out


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


def search_tables(
    p: int,
    lo: int,
    hi: int,
    support_bound: int,
    cap=None,
    extend_depth: int = 1,
):
    """Enumerate all shift-invariant interior comm tables on the window, in a
    fixed lexicographic order; for each consistent one report its nilpotency
    class and whether some one-step widening stays consistent.

    Yields dicts {"table": ..., "class": ..., "extendable": ...}.
    """
    if p not in (2, 3, 5):
        raise ValueError(f"search supports p in (2, 3, 5), got {p}")
    if hi - lo + 1 > 8:
        raise ValueError(f"search window width is capped at 8, got {hi - lo + 1}")
    if support_bound < 0:
        raise ValueError("support bound must be nonnegative")
    reps = _free_reps(lo, hi)
    choice_lists = [_word_choices(p, i, j, support_bound) for i, j in reps]
    for assignment in itertools.product(*choice_lists):
        rep_words = dict(zip(reps, assignment))
        wg = WindowGroup(p, lo, hi, _propagate(lo, hi, rep_words))
        if zsystem.overlap_violation(wg) is not None:
            continue
        cls = nilpotency_class(wg, cap)
        ext = extendable(wg, support_bound, extend_depth)
        yield {"table": wg.to_json_dict(), "class": cls, "extendable": ext}


def extendable(wg: WindowGroup, support_bound: int, depth: int = 1) -> bool:
    """Whether the table admits a chain of `depth` consistent shift-invariant
    one-step widenings to [lo-1, hi+1], [lo-2, hi+2], ..."""
    if depth <= 0:
        return True
    for ext in _consistent_extensions(wg, support_bound):
        if extendable(ext, support_bound, depth - 1):
            return True
    return False


def _consistent_extensions(wg: WindowGroup, support_bound: int):
    """Yield consistent shift-invariant widenings of the table to
    [lo-1, hi+1], via backtracking over the newly free orbit representatives
    with incremental overlap pruning."""
    lo, hi = wg.lo, wg.hi
    lo2, hi2 = lo - 1, hi + 1

    # re-anchor every orbit that already meets the window on its widened
    # representative; the orbits that do not are free
    rep_words = {}
    new_reps = []
    for i0, j0 in _free_reps(lo2, hi2):
        shift = 2 if i0 < lo else 0
        if j0 + shift <= hi:
            word = wg.comm.get((i0 + shift, j0 + shift), {})
            rep_words[(i0, j0)] = {k - shift: e for k, e in word.items()}
        else:
            new_reps.append((i0, j0))
    choice_lists = [_word_choices(wg.p, i, j, support_bound) for i, j in new_reps]

    def touches(rep, a, b):
        """Whether some translate of the representative lies inside [a, b]."""
        i0, j0 = rep
        return any(a <= i0 + s and j0 + s <= b for s in range(0, hi2 - j0 + 1, 2))

    # overlaps with a boundary index (interior ones hold because the base
    # table is consistent), each run at the first level where every word it
    # may collect through is fixed
    levels = [[] for _ in range(len(new_reps) + 1)]
    for check in zsystem.overlap_checks(lo2, hi2):
        if check[-1] == lo2 or check[0] == hi2:
            last = max(
                (idx for idx, rep in enumerate(new_reps) if touches(rep, check[-1], check[0])),
                default=-1,
            )
            levels[last + 1].append(check)

    def rec(idx: int):
        candidate = WindowGroup(wg.p, lo2, hi2, _propagate(lo2, hi2, rep_words))
        if zsystem.overlap_violation(candidate, levels[idx]) is not None:
            return
        if idx == len(new_reps):
            yield candidate
            return
        for word in choice_lists[idx]:
            rep_words[new_reps[idx]] = word
            yield from rec(idx + 1)
        del rep_words[new_reps[idx]]

    yield from rec(0)

"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass/fail line each (run with -s to see them).

Criterion 6 is split: the cancellation/alternation clauses, and the abelian
criterion on the search sweep in its window-scale form.  A window cannot see
the shift partner of the pair at its maximal distance, so the unit-shift
predicate is vacuously true on a table whose only noncommuting pair is that
one; the sweep asserts abelian iff unit-shift-invariant on every table with a
noncommuting pair below the maximal distance, and that the two sides differ
exactly on the boundary-only tables.

Criterion 8 reports loudly on the class-3 one-step-extendable tables it finds
and certifies that each dies at the second widening, the prescribed handling
for such a discovery; no table that keeps extending can exceed class 2.  It
also pins the stream to the digest the benchmark stores for the same
invocation (the default depth is 1) in bench/reference.json.
"""

import hashlib
import json
import pathlib
import time

from zsys.analysis import (
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    search_tables,
    single_shift_extends,
)
from zsys.cli import main as cli_main
from zsys.matgroup import LaurentMatrix, commutator, make_example
from zsys.zsystem import WindowGroup, closure, derive_window, verify_zs_axioms


def report(n, label, t0):
    print(f"[criterion {n}] PASS  {label}  ({time.perf_counter() - t0:.1f}s)")


def matrix_of(ex, wg, vec):
    m = LaurentMatrix.identity(ex.fp, ex.dim)
    for idx, e in zip(wg.indices(), vec):
        if e:
            m = m * ex.u(idx, e)
    return m


def test_criterion_1_unitary_commutation_relations():
    # Exact matrix equality of the three commutation relations over the full
    # grid.  The nontrivial relations hold in the shift-consistent signed form
    # x_{2z+2z'+1}((-1)^(z+z') * 2*lam*mu) and x_{2z+2z'+1}((-1)^(z+z') * -2*lam*mu);
    # at the anchor case z = z' = 0 these reduce to the constants 2*lam*mu
    # and -2*lam*mu on the nose, which is asserted separately.  The trivial
    # cases hold identically over the whole grid.
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        ex = make_example("unitary", p)
        units = list(range(1, p))
        gens, invs = {}, {}
        for z in range(-3, 4):
            for lam in units:
                for n in (4 * z, 4 * z + 2):
                    gens[(n, lam)] = ex.u(n, lam)
                    invs[(n, lam)] = gens[(n, lam)].inv()

        def comm(key_a, key_b):
            return invs[key_a] * invs[key_b] * gens[key_a] * gens[key_b]

        for z in range(-3, 4):
            for z2 in range(-3, 4):
                k = 2 * z + 2 * z2 + 1
                sign = 1 if (z + z2) % 2 == 0 else -1
                for lam in units:
                    for mu in units:
                        c = comm((4 * z, lam), (4 * z2 + 2, mu))
                        assert c == ex.u(k, sign * 2 * lam * mu % p)
                        c = comm((4 * z + 2, lam), (4 * z2, mu))
                        assert c == ex.u(k, -sign * 2 * lam * mu % p)
                        assert comm((4 * z, lam), (4 * z2, mu)).is_identity()
                        assert comm((4 * z + 2, lam), (4 * z2 + 2, mu)).is_identity()
        # anchor case: the base constants hold exactly
        for lam in units:
            for mu in units:
                assert commutator(ex.u(0, lam), ex.u(2, mu)) == ex.u(1, 2 * lam * mu % p)
                assert commutator(ex.u(2, lam), ex.u(0, mu)) == ex.u(1, -2 * lam * mu % p)
    report(1, "unitary commutation relations, p in {3,5,7}, z,z' in [-3,3]", t0)


def test_criterion_2_standard_abelian():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        ex = make_example("standard", p)
        us = {n: ex.u(n, 1) for n in range(-5, 6)}
        for n in range(-5, 6):
            for m in range(-5, 6):
                assert commutator(us[n], us[m]).is_identity()
    report(2, "standard example abelian on [-5,5], p in {2,3,5}", t0)


def test_criterion_3_nilpotency_class_at_window_scale():
    t0 = time.perf_counter()
    for p in (3, 5):
        std = make_example("standard", p)
        uni = make_example("unitary", p)
        for w in range(0, 8):
            assert nilpotency_class(derive_window(std, 0, w)) == 1
            wg = derive_window(uni, 0, w)
            series = lower_central_series(wg)
            if w >= 2:
                assert len(series[1]) != 1  # [X, X] != 1
                assert len(series) == 3 and len(series[2]) == 1  # [X, X, X] = 1
                assert nilpotency_class(wg) == 2
            else:
                # too narrow to contain a noncommuting pair
                assert nilpotency_class(wg) == 1
    report(3, "unitary windows [0,w] class exactly 2 (w >= 2), standard class 1", t0)


def test_criterion_4_zs_axiom_suite():
    t0 = time.perf_counter()
    cap = 100_000
    for p in (3, 5):
        for tag in ("standard", "unitary"):
            ex = make_example(tag, p)
            for w in range(0, 8):
                wg = derive_window(ex, 0, w)
                rep = verify_zs_axioms(wg, cap)
                assert rep["pass"], (tag, p, w, rep)
                entry = rep["checks"]["ZS2/ZS6"]
                if wg.order <= cap:
                    assert entry["method"] == "exhaustive"
                    assert entry["order"] == wg.order
                else:
                    assert entry["method"] == "associativity"
    report(4, "ZS axioms pass on all derived windows, exact orders below cap", t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    import random

    configs = [
        ("standard", 3, -3, 3),
        ("standard", 5, -2, 4),
        ("unitary", 3, 0, 5),
        ("unitary", 5, -2, 3),
        ("unitary", 7, 0, 4),
    ]
    for tag, p, lo, hi in configs:
        ex = make_example(tag, p)
        wg = derive_window(ex, lo, hi)
        rng = random.Random(f"{tag}-{p}-{lo}-{hi}")
        width = hi - lo + 1
        for _ in range(1000):
            a = tuple(rng.randrange(p) for _ in range(width))
            b = tuple(rng.randrange(p) for _ in range(width))
            ma, mb = matrix_of(ex, wg, a), matrix_of(ex, wg, b)
            assert wg.mul_vec(a, b) == ex.normal_form(ma * mb, lo, hi)
            assert wg.inv_vec(a) == ex.normal_form(ma.inv(), lo, hi)
            assert wg.comm_vec(a, b) == ex.normal_form(commutator(ma, mb), lo, hi)
    report(5, "collection vs matrix arithmetic on 1000 random triples x 5 configs", t0)


def test_criterion_6_cancellation_and_alternation():
    t0 = time.perf_counter()
    wg = derive_window(make_example("unitary", 3), 0, 5)
    p = wg.p
    elements = sorted(map(tuple, closure(wg, [wg.gen_vec(i) for i in wg.indices()])))
    assert len(elements) == 729
    stats = {v: wg.stats_vec(v) for v in elements}
    nonid = [v for v in elements if v != wg.identity_vec]

    # start-index rule, exhaustively over all elements and generator indices
    for k in wg.indices():
        gk = wg.gen_vec(k)
        for v in elements:
            if stats[v].start == k:
                continue
            assert wg.stats_vec(wg.mul_vec(gk, v)).start == min(k, stats[v].start)

    # power shrinking
    for v in nonid:
        assert wg.stats_vec(wg.pow_vec(v, p)).width < stats[v].width

    # start/end cancellation, exhaustively over all pairs, existential in lam
    powers = {v: [None, v, wg.mul_vec(v, v)] for v in nonid}
    for x in nonid:
        sx = stats[x]
        for y in nonid:
            sy = stats[y]
            match_start = sx.start == sy.start
            match_end = sx.end == sy.end
            if not (match_start or match_end):
                continue
            widths_cap = max(sx.width, sy.width)
            found_start = found_end = False
            for lam in range(1, p):
                w = wg.mul_vec(powers[y][lam], x)
                sw = wg.stats_vec(w)
                if match_start and sw.start > sx.start and sw.width < widths_cap:
                    found_start = True
                if match_end and sw.end < sx.end and sw.width < widths_cap:
                    found_end = True
            assert not match_start or found_start, (x, y)
            assert not match_end or found_end, (x, y)

    # cutoff alternation on the unitary example, matrix side
    for p2 in (3, 5):
        ex = make_example("unitary", p2)
        assert lower_cutoff(ex, 6) == (2, (0, 2))
        assert not commutator(ex.u(0, 1), ex.u(2, 1)).is_identity()
        assert commutator(ex.u(1, 1), ex.u(3, 1)).is_identity()
    report(6, "cancellation lemmas exhaustive on [0,5] p=3; alternation at cutoff 2", t0)


def test_criterion_6_abelian_iff_unit_shift_on_searched_tables():
    # The abelian criterion in the form a window can decide, on every
    # consistent table emitted at p = 2, window lengths up to 5, support
    # bound 1.  The pair (lo, hi) at the maximal distance has no in-window
    # shift partner, so single_shift_extends is vacuously true on a table
    # whose only noncommuting pair is (lo, hi): (a) abelian tables are
    # unit-shift-invariant; (b) with a noncommuting pair below the maximal
    # distance, abelian iff unit-shift-invariant; (c) the two sides differ
    # exactly on the boundary-only tables, built here from their definition.
    t0 = time.perf_counter()

    def key(table):
        return json.dumps(table, sort_keys=True, separators=(",", ":"))

    boundary_only = set()
    for hi in range(2, 5):
        for k in range(1, hi):
            wg = WindowGroup(2, 0, hi, {(0, hi): {k: 1}})
            assert verify_zs_axioms(wg)["pass"], (hi, k)
            boundary_only.add(key(wg.to_json_dict()))
    assert len(boundary_only) == 6

    searched, violations, decided = set(), set(), 0
    for hi in range(1, 5):
        for item in search_tables(2, 0, hi, 1):
            wg = WindowGroup.from_json_dict(item["table"])
            searched.add(key(item["table"]))
            abelian, unit_shift = wg.is_abelian(), single_shift_extends(wg)
            if abelian:
                assert unit_shift, item["table"]
            if any(word and j - i < wg.hi - wg.lo for (i, j), word in wg.comm.items()):
                assert abelian == unit_shift, item["table"]
                decided += 1
            if abelian != unit_shift:
                violations.add(key(item["table"]))
    for table in sorted(boundary_only):
        print(f"[criterion 6] boundary-only (vacuously unit-shift-invariant): {table}")
    assert decided > 0
    assert boundary_only <= searched, sorted(boundary_only - searched)
    assert violations == boundary_only, sorted(violations ^ boundary_only)
    report(6, "abelian iff unit-shift-invariant below the maximal distance on searched tables", t0)


def test_criterion_7_rgd_suite():
    t0 = time.perf_counter()
    from zsys.rgd import rgd3_m_map, rgd_check
    from zsys.rootsystem import Root, reflect

    for p in (3, 5):
        for tag in ("standard", "unitary"):
            rep = rgd_check(make_example(tag, p), 4)
            assert rep["checks"]["RGD1"]["pass"], (tag, p)
            assert rep["checks"]["RGD2"]["pass"], (tag, p)
            assert rep["checks"]["RGD6"]["pass"], (tag, p)
            assert rep["pass"], (tag, p)
        ex = make_example("standard", p)
        for i in (0, 1):
            for lam in range(1, p):
                m, rep = rgd3_m_map(ex, i, lam, 4)
                assert rep["action_matches_reflection"], (p, i, lam)
                assert rep["quotients_in_torus"], (p, i, lam)
                for z in range(-4, 5):
                    for eps in (1, -1):
                        root = Root(z, eps)
                        got = ex.root_of(m * ex.root_generator(root, 1) * m.inv())
                        assert got is not None and got[0] == reflect(i, root)
    report(7, "RGD1/RGD2/RGD6 both examples; reflection action matches ladder", t0)


def test_criterion_8_search_reproducibility(capsys):
    # Byte-identical deterministic stream; contains the abelian table (class 1)
    # and the class-2 table matching the derived pattern.  The stream also
    # contains four one-step-extendable tables of class 3 (the nested towers
    # comm(0,2)={1:a}, comm(0,4)={2:b}, comm(2,4)={3:a}); these are reported
    # loudly below and each is certified to die at the second widening, so
    # none can extend to a full system, whose class is at most 2.
    t0 = time.perf_counter()
    from zsys.analysis import extendable

    args = ["search", "--p", "3", "--window", "0", "4", "--support-bound", "1"]
    assert cli_main(list(args)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and out1
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    digest = json.loads(reference.read_text())[" ".join(args + ["--depth", "1"])]
    assert hashlib.sha256(out1.encode()).hexdigest() == digest
    items = [json.loads(line) for line in out1.strip().splitlines()]

    abelian = [i for i in items if i["table"]["comm"] == {}]
    assert len(abelian) == 1 and abelian[0]["class"] == 1 and abelian[0]["extendable"]

    derived = derive_window(make_example("unitary", 3), 0, 4).to_json_dict()
    pattern_hits = [i for i in items if i["table"] == derived]
    assert len(pattern_hits) == 1 and pattern_hits[0]["class"] == 2

    deep = [i for i in items if i["extendable"] and i["class"] > 2]
    with capsys.disabled():
        for item in deep:
            print(
                "[criterion 8] LOUD: one-step-extendable table of class "
                f"{item['class']}: {json.dumps(item['table'], separators=(',', ':'))}"
            )
    for item in deep:
        wg = WindowGroup.from_json_dict(item["table"])
        assert not extendable(wg, support_bound=1, depth=2), (
            "a class-3 table survived two widenings", item,
        )
    with capsys.disabled():
        report(
            8,
            f"deterministic stream, {len(items)} consistent tables; "
            f"{len(deep)} class-3 one-step survivors all die at the second widening",
            t0,
        )

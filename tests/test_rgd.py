import gc
import hashlib
import itertools
import json
import pathlib

import pytest
from test_matgroup import to_lists

from zsys.cli import main as cli_main
from zsys.matgroup import LaurentMatrix, StandardExample, UnitaryExample, make_example
from zsys import rgd
from zsys.rgd import rgd3_m_map, rgd_check
from zsys.rootsystem import Root, alpha, negate, reflect
from zsys.zsystem import CapExceeded


@pytest.mark.parametrize("tag,p", [("standard", 3), ("standard", 5), ("unitary", 3), ("unitary", 5)])
def test_rgd_check_passes(tag, p):
    report = rgd_check(make_example(tag, p), 4)
    assert report["pass"], report
    assert report["checks"]["RGD1"]["pass"]
    assert report["checks"]["RGD2"]["pass"]
    assert report["checks"]["RGD5"]["pass"]
    assert report["checks"]["RGD6"]["pass"]


def test_rgd4_reported_out_of_scope():
    report = rgd_check(make_example("standard", 3), 2)
    assert report["checks"]["RGD4"]["status"] == "out of scope"
    assert "reason" in report["checks"]["RGD4"]


def test_rgd3_not_checked_for_unitary():
    report = rgd_check(make_example("unitary", 3), 2)
    assert report["checks"]["RGD3"]["status"] == "not checked"


def test_rgd2_standard_interior_words_empty():
    report = rgd_check(make_example("standard", 5), 4)
    assert report["checks"]["RGD2"]["interior_words"] == []


def test_rgd2_unitary_interior_words_on_odd_midpoint():
    report = rgd_check(make_example("unitary", 3), 4)
    words = report["checks"]["RGD2"]["interior_words"]
    assert words
    for sample in words:
        word = sample["word"]
        (k, e), = word.items()
        assert k == (sample["z"] + sample["z2"]) // 2
        assert k % 2 == 1


def test_weyl_element_frozen_f5():
    ex = StandardExample(5)
    m, report = rgd3_m_map(ex, 0, 1, 4)
    assert to_lists(m) == [[[], [[0, 1]]], [[[0, 4]], []]]
    assert report["pass"]


def test_weyl_action_matches_ladder_reflection():
    ex = StandardExample(5)
    for i in (0, 1):
        m, report = rgd3_m_map(ex, i, 2, 3)
        assert report["action_matches_reflection"]
        # spot check: the image of each generator is in the reflected root group
        for z in (-2, 0, 1):
            for eps in (1, -1):
                g = ex.root_generator(Root(z, eps), 1)
                got = ex.root_of(m * g * m.inv())
                assert got is not None and got[0] == reflect(i, Root(z, eps))


def test_weyl_quotients_in_torus():
    ex = StandardExample(5)
    _, report = rgd3_m_map(ex, 0, 1, 2)
    assert report["quotients_in_torus"]
    m1, _ = rgd3_m_map(ex, 0, 1, 1)
    m2, _ = rgd3_m_map(ex, 0, 2, 1)
    assert ex.in_torus(m1.inv() * m2)


def test_rgd3_rejects_unitary_and_bad_args():
    with pytest.raises(ValueError):
        rgd3_m_map(UnitaryExample(3), 0, 1, 2)
    ex = StandardExample(3)
    with pytest.raises(ValueError):
        rgd3_m_map(ex, 2, 1, 2)
    with pytest.raises(ValueError):
        rgd3_m_map(ex, 0, 0, 2)
    # a range with no root to check is refused as rgd_check refuses it,
    # rather than certified by an empty loop
    ex5 = StandardExample(5)
    for K in (0, -1):
        with pytest.raises(ValueError, match="root range K must be at least 1"):
            rgd3_m_map(ex5, 0, 1, K)
        with pytest.raises(ValueError, match="root range K must be at least 1"):
            rgd3_m_map(ex5, 0, 1, K, rgd._generators(ex5, 2))
    # a generator table narrower than [-K, K] is refused by the root it lacks
    with pytest.raises(ValueError, match=r"no root \(-4, 1\)"):
        rgd3_m_map(ex5, 0, 1, 4, rgd._generators(ex5, 2))
    # and so is one that lacks any other entry the map reads: a generator of
    # a parameter other than 1, or a reflection element of its index
    table = rgd._generators(ex5, 2)
    del table[Root(-2, 1), 3]
    with pytest.raises(ValueError, match=r"no root \(-2, 1\) with parameter 3"):
        rgd3_m_map(ex5, 0, 1, 2, table)
    table = rgd._generators(ex5, 2)
    del table[0, 2]
    with pytest.raises(ValueError, match=r"no reflection element \(0, 2\)"):
        rgd3_m_map(ex5, 0, 1, 2, table)
    # a reflection element of the other index is not read
    assert rgd3_m_map(ex5, 1, 1, 2, table)[1]["pass"]


def test_rgd6_torus_scaling():
    # conjugating the index-0 generator by h(2) over F_5 scales the parameter
    # by 4 and stays in the same root group
    ex = StandardExample(5)
    g = ex.u(0, 1)
    h = ex.h(2)
    image = h * g * h.inv()
    assert ex.root_of(image) == (Root(0, 1), 4)


def test_rgd_check_validates_K():
    with pytest.raises(ValueError):
        rgd_check(make_example("standard", 3), 0)


def test_rgd_budget_bounds_the_rgd2_commutators(monkeypatch):
    # the benchmark's largest call forms K(2K+1) * 2 * (p-1)^2 = 2592
    # commutators, well inside the budget, and passes at exactly that budget
    assert 4 * 9 * 2 * 6**2 == 2592 <= rgd.RGD2_BUDGET
    monkeypatch.setattr(rgd, "RGD2_BUDGET", 2592)
    assert rgd_check(make_example("standard", 7), 4)["pass"]
    monkeypatch.setattr(rgd, "RGD2_BUDGET", 2591)
    with pytest.raises(CapExceeded, match="2592 commutators"):
        rgd_check(make_example("unitary", 7), 4)
    monkeypatch.undo()
    with pytest.raises(CapExceeded):
        rgd_check(make_example("standard", 419), 1)


def test_rgd3_with_and_without_the_generator_table():
    ex = StandardExample(5)
    table = rgd._generators(ex, 3)
    # the reflection elements of the table, built again as v u v: the report
    # reads each one from the table it is given
    reflections = {}
    for i, lam in itertools.product((0, 1), range(1, 5)):
        a = alpha(i)
        v = table[negate(a), (-ex.fp.inv(lam)) % 5]
        reflections[i, lam] = v * table[a, lam] * v
    rebuilt = {**table, **reflections}
    for i, lam in itertools.product((0, 1), range(1, 5)):
        m, report = rgd3_m_map(ex, i, lam, 3)
        assert (m, report) == rgd3_m_map(ex, i, lam, 3, table)
        assert (m, report) == rgd3_m_map(ex, i, lam, 3, rebuilt)
        assert rgd3_m_map(ex, i, lam, 3, table)[0] is table[i, lam]
        assert rgd3_m_map(ex, i, lam, 3, rebuilt)[0] is reflections[i, lam]
        assert report["pass"]


RGD4_REPORT = {
    "status": "out of scope",
    "reason": "membership in an infinitely generated subgroup is not decidable here",
}
RGD5_REPORT = {
    "pass": True,
    "note": "holds by construction: the group is defined as generated by the root groups",
}


def test_rgd_reports_at_p3_K2():
    standard = rgd_check(make_example("standard", 3), 2)
    unitary = rgd_check(make_example("unitary", 3), 2)
    assert json.dumps(standard) == json.dumps({
        "example": "standard",
        "p": 3,
        "K": 2,
        "checks": {
            "RGD1": {"pass": True},
            "RGD2": {"pass": True, "interior_words": []},
            "RGD3": {"pass": True},
            "RGD4": RGD4_REPORT,
            "RGD5": RGD5_REPORT,
            "RGD6": {"pass": True},
        },
        "pass": True,
    })
    assert json.dumps(unitary) == json.dumps({
        "example": "unitary",
        "p": 3,
        "K": 2,
        "checks": {
            "RGD1": {"pass": True},
            "RGD2": {
                "pass": True,
                "interior_words": [
                    {"z": -2, "z2": 0, "eps": 1, "word": {-1: 2}},
                    {"z": -2, "z2": 0, "eps": -1, "word": {-1: 1}},
                    {"z": 0, "z2": 2, "eps": 1, "word": {1: 2}},
                    {"z": 0, "z2": 2, "eps": -1, "word": {1: 1}},
                ],
            },
            "RGD3": {
                "status": "not checked",
                "reason": "no reflection-element recipe is implemented for this family",
            },
            "RGD4": RGD4_REPORT,
            "RGD5": RGD5_REPORT,
            "RGD6": {"pass": True},
        },
        "pass": True,
    })


@pytest.mark.parametrize("tag, products", [("standard", 48), ("unitary", 0)])
def test_rgd_forms_no_conjugation_product(monkeypatch, tag, products):
    # RGD3 and RGD6 conjugate by monomial matrices in closed form, so at p=5,
    # K=4 the only matrix products are the standard family's 16 reflection
    # builds (two per m = v u v, one m per i and lam) and its 32 torus
    # quotients m^-1 m' (one per i, lam and lam'); forming each conjugate
    # as a product of three matrices takes 1,344 and 144
    mul = LaurentMatrix.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(LaurentMatrix, "__mul__", counted)
    assert rgd_check(make_example(tag, 5), 4)["pass"]
    assert len(calls) == products


def test_rgd_leaves_no_matrix_to_the_cyclic_collector(monkeypatch):
    # an inverse refers back to its matrix weakly, so no matrix of a check
    # sits in a reference cycle; and each of the 8 reflection elements of
    # the standard family at p=5 is still inverted once
    det = LaurentMatrix.det
    inverted = []

    def counted(self):
        inverted.append(None)
        return det(self)

    monkeypatch.setattr(LaurentMatrix, "det", counted)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for tag in ("standard", "unitary"):
            assert rgd_check(make_example(tag, 5), 4)["pass"]
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, LaurentMatrix)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []
    assert len(inverted) == 8


def test_rgd2_witness_is_the_first_failure_in_loop_order(monkeypatch):
    # the 19th read-off fails: RGD2 runs over (z, z2), then eps, then lam,
    # then mu, so the 16 read-offs of the pair (-2, -1) at eps = 1 come first
    # and the 19th is that pair at eps = -1 with lam = 1 and mu = 3
    ex = make_example("unitary", 5)
    read = UnitaryExample.normal_form
    calls = []

    # the negative side reads off through normal_form of the transpose
    def failing(self, c, lo, hi):
        calls.append(None)
        if len(calls) == 19:
            raise ValueError("not in a root group")
        return read(self, c, lo, hi)

    monkeypatch.setattr(UnitaryExample, "normal_form", failing)
    entry = rgd_check(ex, 2)["checks"]["RGD2"]
    assert list(entry) == ["pass", "interior_words", "witness"]
    assert entry["witness"] == {
        "z": -2, "z2": -1, "eps": -1, "lam": 1, "mu": 3, "error": "not in a root group",
    }
    assert entry["interior_words"] == []


def test_rgd2_agrees_with_derived_window_table():
    # the positive-side interior words are exactly the derived comm table:
    # the table stores [u_j, u_i] while the axiom loop forms [u_i, u_j], so
    # the words are mutual inverses (here: negatives of central letters)
    from zsys.matgroup import commutator
    from zsys.zsystem import derive_window

    ex = make_example("unitary", 3)
    lo, hi = -3, 3
    wg = derive_window(ex, lo, hi)
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            c = commutator(ex.u(i, 1), ex.u(j, 1))
            vec = ex.normal_form(c, lo, hi)
            word = {lo + k: e for k, e in enumerate(vec) if e}
            stored = wg.comm.get((i, j), {})
            assert word == {k: (-e) % wg.p for k, e in stored.items()}
            assert all(i < k < j for k in word)


@pytest.mark.parametrize("example,p", [(e, p) for p in ("5", "7") for e in ("standard", "unitary")])
def test_rgd_payloads_match_benchmark_reference(capsys, example, p):
    # the benchmark's rgd invocations, hashed as the benchmark hashes them:
    # the report without its wall-clock timings, in compact JSON
    argv = ["rgd", "--example", example, "--p", p, "--K", "4"]
    assert cli_main(list(argv)) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("timings")
    stream = json.dumps(payload, separators=(",", ":")) + "\n"
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    digest = json.loads(reference.read_text())[" ".join(argv)]
    assert hashlib.sha256(stream.encode()).hexdigest() == digest

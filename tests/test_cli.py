import argparse
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_collect_oracle import interior_tables

from zsys import cli, zsystem
from zsys.cli import main
from zsys.matgroup import LaurentMatrix, commutator, make_example
from zsys.zsystem import overlap_violation


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_unitary(capsys):
    code, out, _ = run_cli(capsys, "class", "--example", "unitary", "--p", "3", "--window", "0", "7")
    assert code == 0
    assert json.loads(out) == {"class": 2}


def test_class_standard(capsys):
    code, out, _ = run_cli(capsys, "class", "--example", "standard", "--p", "5", "--window", "0", "4")
    assert code == 0
    assert json.loads(out) == {"class": 1}


def test_cutoff_standard_abelian(capsys):
    code, out, _ = run_cli(capsys, "cutoff", "--example", "standard", "--p", "5", "--bound", "10")
    assert code == 0
    assert json.loads(out) == {"cutoff": "abelian-within-bound"}


def test_cutoff_unitary_witness(capsys):
    code, out, _ = run_cli(capsys, "cutoff", "--example", "unitary", "--p", "5", "--bound", "6")
    assert code == 0
    assert json.loads(out) == {"cutoff": 2, "witness": [0, 2]}


def test_cutoff_scans_the_window_when_given(tmp_path, capsys):
    # with --window the window derived from the example is scanned, as
    # `cutoff --table` scans the table that `derive` prints: [0, 1] holds no
    # pair at distance 2, and on [1, 4] the first one is (2, 4)
    expected = {("0", "1"): {"cutoff": "abelian-within-bound"},
                ("1", "4"): {"cutoff": 2, "witness": [2, 4]}}
    for window, payload in expected.items():
        source = ("--example", "unitary", "--p", "3", "--window", *window)
        code, out, _ = run_cli(capsys, "cutoff", *source, "--bound", "5")
        assert (code, json.loads(out)) == (0, payload)
        _, derived, _ = run_cli(capsys, "derive", *source)
        table = tmp_path / "derived.json"
        table.write_text(derived)
        assert run_cli(capsys, "cutoff", "--table", str(table), "--bound", "5")[1] == out
    # without it the matrices are scanned, for pairs at any start
    code, out, _ = run_cli(capsys, "cutoff", "--example", "unitary", "--p", "3", "--bound", "5")
    assert (code, json.loads(out)) == (0, {"cutoff": 2, "witness": [0, 2]})


def test_cutoff_bound_past_the_window_or_the_budget(tmp_path, capsys):
    # a table holds no pair past hi - lo, so a bound far past it answers at
    # once; a matrix example forms two commutators per distance, and a bound
    # past half the budget exits 2 before the first
    _, out, _ = run_cli(capsys, "derive", "--example", "standard", "--p", "3", "--window", "0", "4")
    table = tmp_path / "standard.json"
    table.write_text(out)
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "cutoff", "--table", str(table), "--bound", "30000000")
    assert time.perf_counter() - t0 < 2
    assert (code, json.loads(out)) == (0, {"cutoff": "abelian-within-bound"})
    code, out, _ = run_cli(capsys, "cutoff", "--example", "unitary", "--p", "3", "--bound", "5000")
    assert (code, json.loads(out)) == (0, {"cutoff": 2, "witness": [0, 2]})
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "cutoff", "--example", "standard", "--p", "3", "--bound", "5001")
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (2, "")
    assert "resource error" in err and "10002 commutators" in err


def test_nf_example(capsys):
    code, out, _ = run_cli(
        capsys, "nf", "--example", "unitary", "--p", "3", "--window", "0", "2", "--word", "2:1 0:1"
    )
    assert code == 0
    assert out.strip() == '{"e":[1,1,1],"start":0,"end":2,"width":3}'


def test_nf_identity_has_null_stats(capsys):
    code, out, _ = run_cli(
        capsys, "nf", "--example", "standard", "--p", "3", "--window", "0", "2", "--word", "0:3"
    )
    assert code == 0
    assert json.loads(out) == {"e": [0, 0, 0], "start": None, "end": None, "width": 0}


def test_comm_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "comm", "--example", "unitary", "--p", "5", "--window", "0", "2",
        "--left", "0:1", "--right", "2:1",
    )
    assert code == 0
    assert json.loads(out)["e"] == [0, 2, 0]


def test_comm_subcommand_matches_matrix_commutators(capsys):
    # seeded words on unitary p=5 [0, 6], a central window, with exponents
    # that are negative and at least p: comm's "e" is the normal form of the
    # commutator of the words' matrices, and nf's that of each word's matrix
    ex = make_example("unitary", 5)
    source = ("--example", "unitary", "--p", "5", "--window", "0", "6")
    rng = random.Random("comm-unitary-5")

    def matrix(word):
        m = LaurentMatrix.identity(ex.fp, ex.dim)
        for idx, e in word:
            m = m * ex.u(idx, e)
        return m

    def spelled(word):
        return " ".join(f"{idx}:{e}" for idx, e in word)

    exponents = []
    for _ in range(12):
        left, right = (
            [(rng.randrange(7), rng.randrange(-10, 11)) for _ in range(rng.randrange(1, 6))]
            for _ in range(2)
        )
        exponents += [e for _, e in left + right]
        for word in (left, right):
            code, out, _ = run_cli(capsys, "nf", *source, "--word", spelled(word))
            assert (code, json.loads(out)["e"]) == (0, list(ex.normal_form(matrix(word), 0, 6)))
        code, out, _ = run_cli(
            capsys, "comm", *source, "--left", spelled(left), "--right", spelled(right)
        )
        expected = ex.normal_form(commutator(matrix(left), matrix(right)), 0, 6)
        assert (code, json.loads(out)["e"]) == (0, list(expected))
    assert min(exponents) < 0 and max(exponents) >= 5


def test_derive_then_axioms_via_table_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "derive", "--example", "unitary", "--p", "3", "--window", "0", "4")
    assert code == 0
    table = tmp_path / "table.json"
    table.write_text(out)
    code, out, _ = run_cli(capsys, "axioms", "--table", str(table))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and "timings" in report


def test_axioms_fail_exit_code(tmp_path, capsys):
    bad = {"p": 3, "lo": 0, "hi": 2, "comm": {"0,2": {"0": 1}}}
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "axioms", "--table", str(table))
    assert code == 1
    assert not json.loads(out)["pass"]


def test_lemmas_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--example", "unitary", "--p", "3", "--window", "0", "4")
    assert code == 0
    assert json.loads(out)["pass"]


def test_lemmas_boundary_only_window_exit_code(capsys):
    # the derived window's only noncommuting pair is (0, 2), at the maximal
    # distance, where the unit-shift predicate is vacuous: no check fails
    code, out, _ = run_cli(capsys, "lemmas", "--example", "unitary", "--p", "3", "--window", "0", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["checks"]["abelian_iff_unit_shift"]["vacuous_at_boundary"] is True


def test_lemmas_fail_exit_code(tmp_path, capsys):
    # consistent, unit-shift-invariant yet nonabelian table (its pairs sit
    # below the maximal distance): the abelian criterion fails
    bad = {"p": 2, "lo": 0, "hi": 5, "comm": {"0,4": {"2": 1}, "1,5": {"3": 1}}}
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "lemmas", "--table", str(table))
    assert code == 1
    report = json.loads(out)
    assert not report["checks"]["abelian_iff_unit_shift"]["pass"]


def test_inconsistent_table_refused(tmp_path, capsys):
    # the subgroup commands need a group: an inconsistent table exits 2 with
    # the overlap witness, where axioms reports it with exit 1
    bad = {"p": 2, "lo": 0, "hi": 4, "comm": {"0,2": {"1": 1}, "1,3": {"2": 1}, "2,4": {"3": 1}}}
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(bad))
    source = ["--table", str(table)]
    shiftinv = ["shiftinv", *source, "--a", "0:1", "--b", "1:1"]
    for argv in (["class", *source], ["lemmas", *source], shiftinv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: table is inconsistent: triple at [3, 1, 0]\n", argv
    code, out, _ = run_cli(capsys, "axioms", *source)
    assert code == 1
    assert json.loads(out)["checks"]["ZS2/ZS6"]["witness"]["indices"] == [3, 1, 0]


def test_rgd_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rgd", "--example", "standard", "--p", "3", "--K", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["checks"]["RGD4"]["status"] == "out of scope"


def test_shiftinv_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "shiftinv", "--example", "standard", "--p", "3", "--window", "0", "6",
        "--a", "0:1", "--b", "0:0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 81
    assert payload["even_start_nonempty"] and not payload["odd_start_nonempty"]


def test_search_subcommand_stream(capsys):
    code, out, _ = run_cli(capsys, "search", "--p", "2", "--window", "0", "3", "--support-bound", "1")
    assert code == 0
    lines = out.strip().splitlines()
    items = [json.loads(line) for line in lines]
    assert items[0]["table"]["comm"] == {} and items[0]["class"] == 1
    assert all(set(item) == {"table", "class", "extendable"} for item in items)


def test_search_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "search", "--p", "2", "--window", "0", "4", "--support-bound", "1")
    _, out2, _ = run_cli(capsys, "search", "--p", "2", "--window", "0", "4", "--support-bound", "1")
    assert out1 == out2


def test_payload_determinism_excluding_timings(capsys):
    _, out1, _ = run_cli(capsys, "axioms", "--example", "unitary", "--p", "3", "--window", "0", "4")
    _, out2, _ = run_cli(capsys, "axioms", "--example", "unitary", "--p", "3", "--window", "0", "4")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timings"), b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "class", "--example", "unitary", "--p", "3")
    assert code == 2 and "window" in err
    code, _, err = run_cli(capsys, "class", "--p", "3", "--window", "0", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "nf", "--example", "standard", "--p", "3", "--window", "0", "2", "--word", "xx")
    assert code == 2
    # certificates and budgets that would check nothing are refused up front
    source = ["--example", "unitary", "--p", "3", "--window", "0", "2"]
    search = ["search", "--p", "2", "--window", "0", "3"]
    bad = [search + ["--depth", "0"], search + ["--depth", "-1"]]
    bad += [["lemmas", *source, "--trials", t] for t in ("0", "-3")]
    for cap in ("0", "-1"):
        bad += [[cmd, *source, "--cap", cap] for cmd in ("axioms", "lemmas")]
        bad.append(["shiftinv", *source, "--a", "0:1", "--b", "1:1", "--cap", cap])
    # a table file whose fields have the wrong types
    malformed = (
        {"p": None, "lo": 0, "hi": 2},
        [1, 2],
        {"p": 3, "lo": 0, "hi": 2, "comm": {"0,2": {"1": None}}},
    )
    for n, data in enumerate(malformed):
        table = tmp_path / f"malformed{n}.json"
        table.write_text(json.dumps(data))
        bad.append(["class", "--table", str(table)])
    for argv in bad:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_cap_only_where_a_closure_is_formed(capsys):
    # derive, nf, comm, cutoff, class and search form no closure: --cap is
    # not an option of theirs
    source = ["--example", "unitary", "--p", "3", "--window", "0", "2"]
    search = ["search", "--p", "2", "--window", "0", "3"]
    for argv in (
        ["derive", *source],
        ["nf", *source, "--word", "0:1"],
        ["comm", *source, "--left", "0:1", "--right", "2:1"],
        ["cutoff", "--example", "unitary", "--p", "3", "--bound", "2"],
        ["class", *source],
        search,
    ):
        for cap in ("0", "-1", "5"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--cap", cap])
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: --cap {cap}" in capsys.readouterr().err


def test_malformed_table_exit_2(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run_cli(capsys, "axioms", "--table", str(f))
    assert code == 2 and "error" in err
    f2 = tmp_path / "missing_keys.json"
    f2.write_text(json.dumps({"p": 3}))
    code, _, _ = run_cli(capsys, "axioms", "--table", str(f2))
    assert code == 2


GOOD_TABLE = {"p": 3, "lo": 0, "hi": 2, "comm": {"0,2": {"1": 1}}}


@pytest.mark.parametrize(
    "document",
    [
        {"p": 3.9, "lo": 0.7, "hi": 2, "comm": {"0,2": {"1": 1.5}}},
        {**GOOD_TABLE, "p": 3.0},
        {**GOOD_TABLE, "lo": 0.7},
        {**GOOD_TABLE, "hi": 2.0},
        {**GOOD_TABLE, "comm": {"0,2": {"1": 1.5}}},
        {**GOOD_TABLE, "comm": {"0,2": {"1": True}}},
        {**GOOD_TABLE, "p": "3"},
        {**GOOD_TABLE, "hi": True},
        {**GOOD_TABLE, "comm": {"0, 2": {"1": 1}}},
        {**GOOD_TABLE, "comm": {"0,+2": {"1": 1}}},
        {**GOOD_TABLE, "comm": {"0,2": {"1.0": 1}}},
        {**GOOD_TABLE, "comm": {"0,2": {" 1": 1}}},
        {**GOOD_TABLE, "comm": {"0,2": {"0_1": 1}}},
    ],
    ids=[
        "floats-everywhere", "float-p", "float-lo", "float-hi", "float-exponent",
        "bool-exponent", "string-p", "bool-hi", "spaced-pair-key", "signed-pair-key",
        "float-word-key", "spaced-word-key", "underscored-word-key",
    ],
)
def test_table_numbers_must_be_integers(tmp_path, capsys, document):
    # a value or key that is not an integer is refused, not truncated or read
    # as a number
    table = tmp_path / "table.json"
    table.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "derive", "--table", str(table))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed window-group data")


def test_table_with_integer_fields_and_negative_keys_loads(tmp_path, capsys):
    table = tmp_path / "table.json"
    for document in (GOOD_TABLE, {"p": 3, "lo": -2, "hi": 0, "comm": {"-2,0": {"-1": 2}}}):
        table.write_text(json.dumps(document))
        code, out, _ = run_cli(capsys, "derive", "--table", str(table))
        assert code == 0 and json.loads(out) == document


def test_lemma_trials_past_the_budget_exit_2_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "lemmas", "--example", "unitary", "--p", "5", "--window", "0", "7",
        "--trials", "1000000000",
    )
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (2, "")
    assert err.startswith("resource error:") and "budget" in err


# every number drawn, spelled out or not, lies in [-3, 5], so a table that
# loads has p in {2, 3} and at most 3^9 elements
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-3, 5) | st.sampled_from([float("inf"), float("nan")]),
    st.sampled_from(["", " 3", "-1", "2.5", "1e1", "0,2", "x"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("0123,", max_size=4), inner, max_size=3),
    max_leaves=8,
)
# each field is well-typed or arbitrary, so that whole tables that load, and
# tables with one bad field among good ones, are both drawn
pair_keys = st.builds("{},{}".format, st.integers(-2, 4), st.integers(-2, 4))
words = st.dictionaries(st.integers(-2, 4).map(str), st.integers(-3, 5) | json_values, max_size=3)
table_documents = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "p": st.sampled_from([2, 3]) | json_values,
            "lo": st.integers(-2, 1) | json_values,
            "hi": st.integers(0, 4) | json_values,
        },
        optional={
            "comm": st.dictionaries(pair_keys | st.text("0123,-", max_size=4), words | json_values, max_size=3)
            | json_values
        },
    ),
)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=table_documents)
def test_class_table_never_raises(tmp_path, capsys, document):
    # every JSON document, well-formed or not, gives an exit code, never a
    # traceback; a usage error leaves stdout empty
    table = tmp_path / "table.json"
    table.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "class", "--table", str(table))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith(("error:", "resource error:"))


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wg=interior_tables(), data=st.data())
def test_subgroup_commands_never_raise(tmp_path, capsys, wg, data):
    # on strictly interior tables, mostly inconsistent, class, lemmas and
    # shiftinv give an exit code and never a traceback; the cap keeps the
    # closures of lemmas and shiftinv small
    table = tmp_path / "table.json"
    table.write_text(json.dumps(wg.to_json_dict()))
    letter = st.builds("{}:{}".format, st.integers(wg.lo, wg.hi), st.integers(0, wg.p))
    word = st.lists(letter, min_size=1, max_size=3).map(" ".join)
    source = ["--table", str(table), "--cap", "3000"]
    for argv in (
        ["class", "--table", str(table)],
        ["lemmas", *source, "--trials", "5"],
        ["shiftinv", *source, "--a", data.draw(word), "--b", data.draw(word)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith(("error:", "resource error:")), argv
        if overlap_violation(wg) is not None:
            assert code == 2 and err.startswith("error: table is inconsistent:"), argv


# moduli for the flags below: primes, numbers that are not prime, and the
# Mersenne prime 2^61 - 1, past every budget that grows with p; the repeats
# weight the draws toward runs that get past the input checks
moduli = st.sampled_from([2, 3, 5, 7, 2**61 - 1, 3, 5, 7, -3, 0, 1, 4, 9])


@st.composite
def other_commands(draw):
    """argv of derive, nf, comm, axioms, cutoff, rgd or search, each flag
    drawn in range or out of it, and bounded so that one run takes
    milliseconds: windows of width at most 4, search support bound at most 1
    and rgd K at most 2."""
    command = draw(st.sampled_from(["derive", "nf", "comm", "axioms", "cutoff", "rgd", "search"]))
    example = ["--example", draw(st.sampled_from(["standard", "unitary"]))]
    p = ["--p", str(draw(moduli))]
    lo = draw(st.integers(-2, 2))
    hi = lo + draw(st.sampled_from([0, 1, 2, 3, 1, 2, 3, -1]))
    window = ["--window", str(lo), str(hi)]
    if command == "rgd":
        return ["rgd", *example, *p, "--K", str(draw(st.integers(1, 2) | st.integers(-1, 0)))]
    if command == "search":
        p = ["--p", str(draw(st.sampled_from([2, 3, 5, 2, 3, 5, 7, 2**61 - 1])))]
        return ["search", *p, *window,
                "--support-bound", str(draw(st.sampled_from([1, 0, 1, -1]))),
                "--depth", str(draw(st.sampled_from([1, 2, 1, 2, 0, -1])))]
    # all three source flags, or now and then all but one
    missing = draw(st.sampled_from([example, p, window])) if draw(st.integers(0, 7)) == 7 else None
    argv = [command, *(a for flags in (example, p, window) if flags is not missing for a in flags)]
    index = st.integers(lo, max(lo, hi)) | st.integers(lo - 1, hi + 1)
    letter = st.builds("{}:{}".format, index, st.integers(-3, 3))
    word = st.lists(letter, min_size=1, max_size=3).map(" ".join)
    if command == "nf":
        argv += ["--word", draw(word)]
    if command == "comm":
        argv += ["--left", draw(word), "--right", draw(word)]
    if command == "cutoff":
        argv += ["--bound", str(draw(st.integers(-1, 8) | st.just(5001)))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=other_commands(), pretty=st.booleans())
def test_other_commands_never_raise(capsys, argv, pretty):
    # every drawn invocation gives an exit code, never a traceback; a usage,
    # input or resource error leaves stdout empty
    code, out, err = run_cli(capsys, *(["--output", "pretty"] if pretty else []), *argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err.startswith(("error:", "resource error:")), (argv, err)
    else:
        assert out, argv


def test_huge_prime_modulus_answers_quickly(tmp_path, capsys):
    # 2^61 - 1 is prime; the primality test must not trial-divide up to it
    table = tmp_path / "mersenne.json"
    table.write_text(json.dumps({"p": 2**61 - 1, "lo": 0, "hi": 2}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "class", "--table", str(table))
    assert time.perf_counter() - start < 2.0
    assert code in (0, 2)
    # a modulus past the exact range of the test is refused
    table.write_text(json.dumps({"p": 10**25 + 13, "lo": 0, "hi": 2}))
    code, out, err = run_cli(capsys, "class", "--table", str(table))
    assert (code, out) == (2, "") and err.startswith("error:")


def test_negative_index_word_is_an_option_value(capsys):
    # a one-letter word whose index is negative reads as the value of each
    # word option, as it does when written with "="
    source = ["--example", "unitary", "--p", "3", "--window", "-2", "2"]
    cases = [
        ("nf", [("--word", "-1:1")]),
        ("comm", [("--left", "-2:1"), ("--right", "0:1")]),
        ("comm", [("--left", "0:1"), ("--right", "-2:2")]),
        ("shiftinv", [("--a", "-2:1"), ("--b", "-1:1")]),
    ]
    for command, options in cases:
        spaced = [part for option in options for part in option]
        joined = [f"{option}={value}" for option, value in options]
        code, out, err = run_cli(capsys, command, *source, *spaced)
        assert (code, err) == (0, ""), (command, options)
        assert (code, out, err) == run_cli(capsys, command, *source, *joined)
    # the word option may come before the others, and a multi-letter word
    # is read as before
    code, out, _ = run_cli(capsys, "nf", "--word", "-1:1", *source)
    assert code == 0 and json.loads(out)["e"] == [0, 1, 0, 0, 0]
    code, out, _ = run_cli(capsys, "nf", *source, "--word", "-1:1 -2:1")
    assert code == 0
    # a word option without a value, or with an option after it, is still a
    # usage error
    for argv in (["nf", *source, "--word"], ["nf", "--word", *source]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--word: expected one argument" in capsys.readouterr().err


def test_abbreviated_word_option_takes_a_negative_index_value(capsys):
    # argparse reads a prefix that names one option alone as that option, so
    # a negative-index word after it is that option's value as well
    source = ["--example", "unitary", "--p", "3", "--window", "-2", "2"]
    cases = [
        ("nf", [("--wor", "-1:1")], ["--word=-1:1"]),
        ("nf", [("--wo", "-2:1")], ["--word=-2:1"]),
        ("comm", [("--lef", "-2:1"), ("--rig", "0:1")], ["--left=-2:1", "--right=0:1"]),
        ("comm", [("--lef", "0:1"), ("--rig", "-2:2")], ["--left=0:1", "--right=-2:2"]),
    ]
    for command, options, joined in cases:
        spaced = [part for option in options for part in option]
        code, out, err = run_cli(capsys, command, *source, *spaced)
        assert (code, err) == (0, ""), (command, options)
        assert (code, out, err) == run_cli(capsys, command, *source, *joined)
    # a prefix of two options of the subcommand stays ambiguous
    with pytest.raises(SystemExit) as exit_info:
        main(["nf", *source, "--w", "-1:1"])
    assert exit_info.value.code == 2
    assert "ambiguous option: --w" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "lemmas", "--example", "unitary", "--p", "3", "--window", "0", "5", "--cap", "2"
    )
    assert (code, out) == (2, "")
    assert "resource" in err


def test_commutator_round_past_the_default_cap_exit_2(capsys, monkeypatch):
    # class forms no closure, so its budget is the size of a commutator
    # round, bounded by the default cap: unitary p=3 [0, 5] has a round of
    # two elements
    monkeypatch.setattr(zsystem, "DEFAULT_CAP", 1)
    code, out, err = run_cli(capsys, "class", "--example", "unitary", "--p", "3", "--window", "0", "5")
    assert (code, out) == (2, "")
    assert err.startswith("resource error:")


def test_rgd_past_its_budget_exits_2_before_building(capsys):
    # K(2K+1) * 2 * (p-1)^2 = 6 * 10^12 commutators at p = 1000003, K = 1
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rgd", "--example", "standard", "--p", "1000003", "--K", "1")
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (2, "")
    assert "resource error" in err and "budget" in err


def test_unitary_p2_rejected(capsys):
    code, _, err = run_cli(capsys, "derive", "--example", "unitary", "--p", "2", "--window", "0", "2")
    assert code == 2 and "char" in err


def test_search_depth_flag_monotone(capsys):
    _, out1, _ = run_cli(capsys, "search", "--p", "2", "--window", "0", "3", "--support-bound", "1")
    _, out2, _ = run_cli(
        capsys, "search", "--p", "2", "--window", "0", "3", "--support-bound", "1", "--depth", "2"
    )
    items1 = [json.loads(line) for line in out1.strip().splitlines()]
    items2 = [json.loads(line) for line in out2.strip().splitlines()]
    assert [i["table"] for i in items1] == [i["table"] for i in items2]
    assert [i["class"] for i in items1] == [i["class"] for i in items2]
    for a, b in zip(items1, items2):
        if b["extendable"]:
            assert a["extendable"]  # deeper extendability implies one-step


def test_pretty_output(capsys):
    source = ("class", "--example", "unitary", "--p", "3", "--window", "0", "3")
    code, out, _ = run_cli(capsys, "--output", "pretty", *source)
    assert code == 0
    assert json.loads(out) == {"class": 2}
    assert "\n" in out.strip()
    # the reused parser keeps no option from the call before
    assert run_cli(capsys, *source) == (0, '{"class":2}\n', "")


# -- one parser per process ----------------------------------------------------


def test_parser_is_built_once_on_first_use(monkeypatch, capsys):
    # importing the module builds nothing; the first main builds the parser
    # and its ten subcommand parsers, and the second reuses them
    probe = "import zsys.cli as cli; print(cli._parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
    assert imported.stdout == "0\n"
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        for window in (("0", "3"), ("0", "5")):
            assert run_cli(capsys, "class", "--example", "unitary", "--p", "3", "--window", *window)[0] == 0
        assert len(built) == 11 and built[0] == "zsys"
    finally:
        cli._parser.cache_clear()


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    # a call that argparse refuses part way, then a valid call: the valid
    # call prints the bytes it prints alone
    valid = ("comm", "--example", "unitary", "--p", "3", "--window", "0", "5",
             "--left", "1:1", "--rig", "3:2")
    cli._parser.cache_clear()
    alone = run_cli(capsys, *valid)
    for refused in (["search"], ["comm", "--example", "unitary", "--left", "1:2", "--p", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(refused)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *valid) == alone
    assert alone[0] == 0


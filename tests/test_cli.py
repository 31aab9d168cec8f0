import json

import pytest

from zsys.cli import main


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
    # unit-shift-invariant yet nonabelian table: the abelian criterion fails
    bad = {"p": 2, "lo": 0, "hi": 4, "comm": {"0,2": {"1": 1}, "1,3": {"2": 1}, "2,4": {"3": 1}}}
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "lemmas", "--table", str(table))
    assert code == 1
    report = json.loads(out)
    assert not report["checks"]["abelian_iff_unit_shift"]["pass"]


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


def test_usage_errors_exit_2(capsys):
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
        bad.append(search + ["--cap", cap])
        bad.append(["cutoff", "--example", "unitary", "--p", "3", "--bound", "2", "--cap", cap])
        bad += [[cmd, *source, "--cap", cap] for cmd in ("derive", "axioms", "class", "lemmas")]
        bad.append(["nf", *source, "--word", "0:1", "--cap", cap])
        bad.append(["comm", *source, "--left", "0:1", "--right", "2:1", "--cap", cap])
        bad.append(["shiftinv", *source, "--a", "0:1", "--b", "1:1", "--cap", cap])
    for argv in bad:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_malformed_table_exit_2(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run_cli(capsys, "axioms", "--table", str(f))
    assert code == 2 and "error" in err
    f2 = tmp_path / "missing_keys.json"
    f2.write_text(json.dumps({"p": 3}))
    code, _, _ = run_cli(capsys, "axioms", "--table", str(f2))
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "class", "--example", "unitary", "--p", "3", "--window", "0", "5", "--cap", "2"
    )
    assert code == 2 and "resource" in err


def test_unitary_p2_rejected(capsys):
    code, _, err = run_cli(capsys, "derive", "--example", "unitary", "--p", "2", "--window", "0", "2")
    assert code == 2 and "char" in err


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("ZSYS_CLOSURE_CAP", "2")
    code, _, err = run_cli(capsys, "class", "--example", "unitary", "--p", "3", "--window", "0", "5")
    assert code == 2 and "resource" in err
    # explicit flag overrides the environment
    monkeypatch.setenv("ZSYS_CLOSURE_CAP", "2")
    code, out, _ = run_cli(
        capsys, "class", "--example", "unitary", "--p", "3", "--window", "0", "5", "--cap", "100000"
    )
    assert code == 0 and json.loads(out) == {"class": 2}


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
    code, out, _ = run_cli(
        capsys, "--output", "pretty", "class", "--example", "unitary", "--p", "3", "--window", "0", "3"
    )
    assert code == 0
    assert json.loads(out) == {"class": 2}
    assert "\n" in out.strip()

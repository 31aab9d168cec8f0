from mutation_guard import MUTANTS, ROOT, Mutant, apply, check


def test_every_snippet_occurs_once_and_every_test_is_named_once():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet and mutant.tests, mutant.name
        assert len(set(mutant.tests)) == len(mutant.tests), mutant.name


def test_a_stale_snippet_and_a_mutant_no_test_catches_fail_the_guard(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\n")
    stale = Mutant("stale", "f.py", "x = 2\n", "x = 3\n", ("t",))
    assert apply(stale, tmp_path) == ["snippet found 0 times in f.py, expected once"]
    assert (tmp_path / "f.py").read_text() == "x = 1\n"
    # a change that no behaviour reads: the named test passes on it
    test = "tests/test_pins.py::test_pins_are_distinct_rows_with_full_prefixes"
    limit = "MEMO_LIMIT = 1 << 16"
    harmless = Mutant("harmless", "src/zsys/analysis.py", limit, "MEMO_LIMIT = 1 << 17", (test,))
    assert check(harmless) == [f"{test} did not fail"]
    # the mutant was made in a copy: the checkout is unchanged
    assert (ROOT / harmless.path).read_text().count(limit) == 1

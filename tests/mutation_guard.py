"""The mutation guard: each fast path is broken on purpose, and the tests
named for it must catch the break.

    python3 tests/mutation_guard.py

For each entry of MUTANTS it copies this checkout's `src/`, `tests/` and
`pyproject.toml` to a temporary directory, replaces the entry's snippet in
its file with the replacement, and runs the entry's tests there with
pytest, under the Hypothesis profile `mutation` of `tests/conftest.py`,
which does not shrink a failing example.  The entry holds when the mutant
package is the one imported and every named test fails.  A snippet that
does not occur exactly once fails the entry, so the list cannot go stale
unseen.  It takes no argument, prints one line per entry and one per
problem it finds, and exits 1 when any entry fails.  Standard library only
(the tests it runs need pytest and hypothesis).
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "a read set of the extension walk that leaves out the slot set last",
        "src/zsys/analysis.py",
        "reads[last + 1] |= touched\n",
        "reads[last + 1] |= touched - {last}\n",
        (
            "tests/test_analysis.py::test_consistent_extensions_match_brute_force[2-3]",
            "tests/test_analysis.py::test_consistent_extensions_match_brute_force[3-2]",
            "tests/test_overlap_memo.py::test_tree_memo_matches_overlap_test_on_extension_nodes",
        ),
    ),
    Mutant(
        "an extension check placed one level early",
        "src/zsys/analysis.py",
        "levels[last + 1].append(check)",
        "levels[last].append(check)",
        (
            "tests/test_analysis.py::test_consistent_extensions_match_brute_force[2-2]",
            "tests/test_overlap_memo.py::test_tree_memo_matches_overlap_test_on_extension_nodes",
        ),
    ),
    Mutant(
        "a deeper widening of the unwidened rows",
        "src/zsys/analysis.py",
        "_extends(memo, p, lo - 1, hi + 1, wide, support_bound, depth - 1)",
        "_extends(memo, p, lo - 1, hi + 1, words, support_bound, depth - 1)",
        ("tests/test_analysis.py::test_depth_two_certificates_match_brute_force[2-2]",),
    ),
    Mutant(
        "the central commutator with the sign of the second term of f swapped",
        "src/zsys/zsystem.py",
        "if f := (a[l] * b[c] - b[l] * a[c]) % p:",
        "if f := (a[l] * b[c] + b[l] * a[c]) % p:",
        (
            "tests/test_collect_oracle.py::test_closed_form_commutator_and_inverse_match_oracles",
            "tests/test_cli.py::test_comm_subcommand_matches_matrix_commutators",
        ),
    ),
    Mutant(
        "the central inverse with f negated",
        "src/zsys/zsystem.py",
        "if f := a[l] * a[c] % p:",
        "if f := -a[l] * a[c] % p:",
        ("tests/test_collect_oracle.py::test_closed_form_commutator_and_inverse_match_oracles",),
    ),
    Mutant(
        # one bit short only at powers of two, and no bit at all at n = 1
        "lemma trial draws with a bit count of (n - 1).bit_length()",
        "src/zsys/analysis.py",
        "getrandbits, k = rng.getrandbits, n.bit_length()",
        "getrandbits, k = rng.getrandbits, (n - 1).bit_length()",
        (
            "tests/test_analysis.py::test_trial_draws_are_the_randrange_stream",
            "tests/test_analysis.py::test_lemma_trials_draw_the_randrange_stream",
        ),
    ),
    Mutant(
        # at p = 2 and 3 every unit is its own inverse, so only p >= 5 shows it
        "the conjugation scale swapped to c_k / c_l",
        "src/zsys/matgroup.py",
        "cl * inv(ck) % self.fp.p",
        "ck * inv(cl) % self.fp.p",
        (
            "tests/test_matgroup.py::test_conjugate_matches_products[standard-5]",
            "tests/test_matgroup.py::test_conjugate_matches_products[standard-7]",
            "tests/test_matgroup.py::test_conjugate_matches_products[unitary-5]",
            "tests/test_matgroup.py::test_conjugate_matches_products[unitary-7]",
        ),
    ),
    Mutant(
        "the Heisenberg corner of two upper factors with its two products swapped",
        "src/zsys/matgroup.py",
        "corner = _det2(fp, x[0][1], y[1][2], x[1][2], y[0][1], zero)",
        "corner = _det2(fp, x[1][2], y[0][1], x[0][1], y[1][2], zero)",
        (
            "tests/test_matgroup.py::test_unitriangular_commutator_matches_schoolbook",
            "tests/test_matgroup.py::test_generator_commutators_match_schoolbook[unitary]",
        ),
    ),
    Mutant(
        "a transposed upper matrix that is not the identity carried as upper",
        "src/zsys/matgroup.py",
        "elif shape == _UPPER and not _clear(self.rows, False):\n            shape = _LOWER",
        "elif shape == _UPPER and not _clear(self.rows, False):\n            shape = _UPPER",
        (
            "tests/test_matgroup.py::test_carried_shapes_match_the_rows[standard-5]",
            "tests/test_matgroup.py::test_carried_shapes_match_the_rows[unitary-5]",
            "tests/test_matgroup.py::test_carried_shapes_match_the_rows[unitary-7]",
            "tests/test_matgroup.py::test_negative_side_normal_form",
        ),
    ),
)


def apply(mutant: Mutant, root: pathlib.Path) -> list:
    """Replace the mutant's snippet in its file under root; the problems
    found, as messages (an empty list means it was applied)."""
    path = root / mutant.path
    source = path.read_text()
    found = source.count(mutant.snippet)
    if found != 1:
        return [f"snippet found {found} times in {mutant.path}, expected once"]
    path.write_text(source.replace(mutant.snippet, mutant.replacement))
    return []


def check(mutant: Mutant) -> list:
    """Run the mutant's tests on a mutated copy of the checkout and return
    what went wrong, as messages; an empty list means every test failed."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, root / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        problems = apply(mutant, root)
        if problems:
            return problems
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import zsys; print(zsys.__file__)"],
            cwd=root, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(root)):
            imported = where.stdout.strip() or where.stderr.strip()
            return [f"the mutant is not the package imported: {imported}"]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
             "--hypothesis-profile", "mutation", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True,
        )
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    problems = [f"{test} did not fail" for test in mutant.tests if test not in failed]
    if problems and proc.returncode not in (0, 1):
        problems.append(f"pytest exit code {proc.returncode}: {proc.stdout.strip()[-500:]}")
    return problems


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        problems = check(mutant)
        status = "FAIL" if problems else "ok"
        elapsed = time.perf_counter() - t0
        print(f"{status:4} {elapsed:5.1f} s  {mutant.name} ({mutant.path})", flush=True)
        for problem in problems:
            print(f"     {problem}", flush=True)
        failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

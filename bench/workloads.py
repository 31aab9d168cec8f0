"""The benchmark's workloads: fixed lists of `zsys` CLI invocations, their
output digests, and the correctness checks that do not rest on the digests.

Why each workload (see README.md for the metric-to-workload mapping):

- `search`: almost all time goes to the `analysis` search phases and the
  `zsystem` generic collection path (class-3 tables and every extension
  candidate), with `overlap_violation` and thousands of small closures.
  `laurent` and `matgroup` do no work.
- `verify`: the same `zsystem` layer used differently: the closed-form
  central `mul_vec` path and one large closure (78125 elements), plus a
  little `matgroup` through `derive_window`.  A change that speeds up
  `search` but slows the central path shows here.
- `rgd`: almost all time goes to `laurent` and `matgroup` (matrix multiply,
  adjugate inverse, commutator, normal-form read-off, `root_of`).
  `zsystem` and `analysis` do no work.

Only `verify` takes random input: the seed sets `lemmas --seed` and the word
pairs of the matrix oracle check.  `search` and `rgd` are deterministic and
ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEARCH_P3 = ["search", "--p", "3", "--window", "0", "4", "--support-bound", "1", "--depth", "1"]
SEARCH_P2 = ["search", "--p", "2", "--window", "0", "5", "--support-bound", "1"]
UNITARY_5 = ["--example", "unitary", "--p", "5", "--window"]

# candidate tables one `search` pass enumerates: 1575 at p=3 plus 2880 at p=2
SEARCH_CANDIDATES = 4455

DERIVE_0_6 = {"0,2": {"1": 3}, "0,6": {"3": 2}, "2,4": {"3": 3}, "4,6": {"5": 3}}

ORACLE_PAIRS = 4
ORACLE_WINDOW = (0, 6)

NAMES = ("search", "verify", "rgd")


def check_origin(module):
    """Refuse to measure a `zsys` imported from anywhere but the checkout."""
    where = os.path.dirname(os.path.abspath(module.__file__))
    if where != os.path.join(SRC, "zsys"):
        raise ImportError(f"zsys imported from {where}, not from {SRC}")


def invocations(workload: str, seed: int) -> list:
    """The argv lists of one pass, in order."""
    if workload == "search":
        return [SEARCH_P3, SEARCH_P2]
    if workload == "verify":
        return [
            ["derive", *UNITARY_5, "0", "6"],
            ["axioms", *UNITARY_5, "0", "6"],
            ["axioms", *UNITARY_5, "0", "7"],
            ["class", *UNITARY_5, "0", "7"],
            ["lemmas", *UNITARY_5, "0", "7", "--trials", "2000", "--seed", str(seed)],
            ["shiftinv", "--example", "standard", "--p", "3", "--window", "0", "6",
             "--a", "0:1", "--b", "0:0"],
        ]
    if workload == "rgd":
        return [
            ["rgd", "--example", example, "--p", p, "--K", "4"]
            for p in ("5", "7")
            for example in ("standard", "unitary")
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def oracle_words(seed: int) -> list:
    """Seeded word pairs on the unitary p=5 window [0, 6], as INDEX:EXP text."""
    rng = random.Random(f"oracle-{seed}")
    lo, hi = ORACLE_WINDOW

    def word():
        return " ".join(
            f"{rng.randint(lo, hi)}:{rng.randint(1, 4)}" for _ in range(rng.randint(1, 4))
        )

    return [(word(), word()) for _ in range(ORACLE_PAIRS)]


def key(argv: list) -> str:
    """Reference-digest key of an invocation; the lemmas seed does not change
    its output, so it is left out."""
    if argv[0] == "lemmas":
        argv = argv[: argv.index("--seed")]
    return " ".join(argv)


def digest(argv: list, stdout: str) -> str:
    """sha256 of the output with wall-clock timings removed.  `search` lines
    carry no timings and are hashed as printed."""
    if argv[0] != "search":
        payload = json.loads(stdout)
        payload.pop("timings", None)
        stdout = json.dumps(payload, separators=(",", ":")) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(argv: list, stdout: str) -> str | None:
    """Workload-specific check of one invocation's output; None when it
    holds, else what is wrong."""
    command = argv[0]
    if command == "search":
        items = [json.loads(line) for line in stdout.splitlines()]
        if argv == SEARCH_P2:
            return None if len(items) == 115 else f"{len(items)} tables, expected 115"
        classes = [sum(1 for it in items if it["class"] == c) for c in (1, 2, 3)]
        four = sum(1 for it in items if it["class"] == 3 and it["extendable"])
        if len(items) != 199 or classes != [1, 122, 76] or four != 4:
            return f"{len(items)} tables, classes {classes}, {four} extendable class-3"
        return None
    payload = json.loads(stdout)
    if command == "derive":
        return None if payload["comm"] == DERIVE_0_6 else f"derived table {payload['comm']}"
    if command == "axioms":
        if not payload["pass"]:
            return "axioms failed"
        zs = payload["checks"]["ZS2/ZS6"]
        if payload["hi"] == 6 and (zs.get("method"), zs.get("order")) != ("exhaustive", 5**7):
            return f"ZS2/ZS6 {zs}"
        return None
    if command == "class":
        return None if payload == {"class": 2} else f"class {payload}"
    if command in ("lemmas", "rgd"):
        return None if payload["pass"] is True else f"{command} report did not pass"
    if command == "shiftinv":
        return None if payload["order"] == 81 else f"shiftinv order {payload['order']}"
    return f"no check for {command}"

"""The pinned CLI streams: one row per run, checked one run at a time.

    python3 tests/pins.py

runs every row of PINS as `python -m zsys.cli <argv>` in its own process,
with this checkout's `src` as PYTHONPATH, so it needs no install.  It takes
no argument, prints one line per row and one per difference it finds, and
exits 1 when any row fails.

One hashing rule serves every row.  Each stdout line is parsed as JSON, a
top-level "timings" key is dropped, and the line is re-dumped compact (the
separators "," and ":") with a trailing newline.  The pin is the first 16
hex digits of the sha256 of those lines, joined.  A row passes when its
command exits 0 and its stream has the stated line count, the stated
prefix, and each stated substring count.  `axioms`, `lemmas` and `rgd` exit
0 only when their report passes, so a row of theirs also pins the pass.

Rows take about 31 s together; the three slowest are the search at support
bound 2 (11 s), the depth-2 search at p=5 (7 s) and width 6 at depth 2 (6 s).
A new pin is one more row.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    name: str
    argv: str
    lines: int
    prefix: str
    counts: dict


EXHAUSTIVE = '"method":"exhaustive"'

PINS = (
    Pin(
        "axioms unitary p=3 [0,9], exhaustive",
        "axioms --example unitary --p 3 --window 0 9",
        1,
        "9d8f0d44a5197cb8",
        {EXHAUSTIVE: 1, '"order":59049': 1},
    ),
    Pin(
        "axioms unitary p=7 [0,5], exhaustive under cap 120000",
        "axioms --example unitary --p 7 --window 0 5 --cap 120000",
        1,
        "7218449503f359a1",
        {EXHAUSTIVE: 1, '"order":117649': 1},
    ),
    Pin(
        "shiftinv standard p=3 [0,9], right_mul cosets",
        "shiftinv --example standard --p 3 --window 0 9 --a 0:1 --b 1:1",
        1,
        "c5e103911ff17c67",
        {'"order":59049': 1},
    ),
    Pin(
        "axioms standard p=257 [0,1], elements packed as tuples",
        "axioms --example standard --p 257 --window 0 1",
        1,
        "c94a9b051c86c5c5",
        {EXHAUSTIVE: 1, '"order":66049': 1},
    ),
    Pin(
        "lemmas unitary p=257 [0,5], series terms packed as tuples",
        "lemmas --example unitary --p 257 --window 0 5 --trials 200",
        1,
        "2001747aad350038",
        {},
    ),
    Pin(
        "shiftinv unitary p=257 [0,3], elements packed as tuples",
        "shiftinv --example unitary --p 257 --window 0 3 --a 1:1 --b 0:0",
        1,
        "ca4fa268a62b7329",
        {'"order":66049': 1},
    ),
    Pin(
        "lemmas unitary p=5 [0,7] at the trial budget",
        "lemmas --example unitary --p 5 --window 0 7 --trials 100000 --seed 1",
        1,
        "6faaceda8e15ec35",
        {},
    ),
    Pin("rgd unitary p=11 K=5", "rgd --example unitary --p 11 --K 5", 1, "12380fd7c3857661", {'"word":': 8}),
    Pin("rgd standard p=11 K=5", "rgd --example standard --p 11 --K 5", 1, "9daf22041ccfb2b4", {}),
    Pin("rgd unitary p=13 K=6", "rgd --example unitary --p 13 --K 6", 1, "995ca65fad61b5a6", {'"word":': 8}),
    Pin("rgd standard p=13 K=6", "rgd --example standard --p 13 --K 6", 1, "3cc0fbe12d9bb8a5", {}),
    Pin("rgd standard p=2 K=6", "rgd --example standard --p 2 --K 6", 1, "207116fc862ed6b5", {}),
    Pin("rgd standard p=3 K=6", "rgd --example standard --p 3 --K 6", 1, "a16d01abc6f7fb9f", {}),
    Pin("rgd unitary p=3 K=6", "rgd --example unitary --p 3 --K 6", 1, "0a0d3a21269ad4d4", {'"word":': 8}),
    Pin(
        "search p=5 [0,4], heavy tier",
        "search --p 5 --window 0 4 --support-bound 1",
        1269,
        "35cceddab801f7f3",
        {},
    ),
    Pin(
        "search p=3 [0,4] depth 2",
        "search --p 3 --window 0 4 --support-bound 1 --depth 2",
        199,
        "ce32071e366750c2",
        {},
    ),
    Pin(
        "search p=5 [0,4] depth 2",
        "search --p 5 --window 0 4 --support-bound 1 --depth 2",
        1269,
        "7763a0cd03a1c86e",
        {},
    ),
    Pin(
        "search p=3 [0,4] support bound 2",
        "search --p 3 --window 0 4 --support-bound 2",
        707,
        "d29f44a5283662c9",
        {'"class":3': 460},
    ),
    Pin(
        "search p=3 [0,5] depth 2, width 6",
        "search --p 3 --window 0 5 --support-bound 1 --depth 2",
        1037,
        "9809ef1ff9f03038",
        {},
    ),
    Pin(
        "search p=2 [0,5] depth 6, widenings to [-6, 11]",
        "search --p 2 --window 0 5 --support-bound 1 --depth 6",
        115,
        "72c982ad3b635499",
        {'"extendable":true': 11},
    ),
    Pin(
        "search p=2 [0,6] depth 2, width 7",
        "search --p 2 --window 0 6 --support-bound 1 --depth 2",
        387,
        "8cffeb4e3edb48c7",
        {'"extendable":true': 29},
    ),
)


def canonical(stdout: str) -> str:
    """The hashed stream: each line re-dumped compact without "timings"."""
    lines = []
    for line in stdout.splitlines():
        item = json.loads(line)
        item.pop("timings", None)
        lines.append(json.dumps(item, separators=(",", ":")) + "\n")
    return "".join(lines)


def check(pin: Pin) -> list:
    """Run the pin's command and return what differs from the row, as
    messages; an empty list means the row holds."""
    proc = subprocess.run(
        [sys.executable, "-m", "zsys.cli", *pin.argv.split()],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        stream = canonical(proc.stdout)
    except json.JSONDecodeError as err:
        return [f"stdout is not JSON lines: {err}"]
    problems = []
    lines = stream.count("\n")
    if lines != pin.lines:
        problems.append(f"{lines} lines, pinned {pin.lines}")
    prefix = hashlib.sha256(stream.encode()).hexdigest()[:16]
    if prefix != pin.prefix:
        problems.append(f"sha256 prefix {prefix}, pinned {pin.prefix}")
    for text, count in pin.counts.items():
        seen = stream.count(text)
        if seen != count:
            problems.append(f"{text} {seen} times, pinned {count}")
    return problems


def main() -> int:
    failed = 0
    for pin in PINS:
        t0 = time.perf_counter()
        problems = check(pin)
        status = "FAIL" if problems else "ok"
        print(f"{status:4} {time.perf_counter() - t0:5.1f} s  {pin.name}: zsys {pin.argv}", flush=True)
        for problem in problems:
            print(f"     {problem}", flush=True)
        failed += bool(problems)
    print(f"{len(PINS) - failed} of {len(PINS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all three by default) it runs two untraced and two traced
passes and checks that:

- the timings-stripped output digests agree between the passes and with
  reference.json;
- every per-layer count repeats exactly between the two traced passes, and
  the stated counts hold (4455 candidates and 314 tables on `search`, a
  78125-element closure on `verify`, no collection on `rgd`);
- the `cli.main` spans cover at least nine tenths of each traced pass.

It also checks that run.py exits non-zero without a result line in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

STATED = {
    "search": {"analysis.search.candidates": workloads.SEARCH_CANDIDATES,
               "analysis.search.tables": 314},
    "verify": {"zsystem.closure.max_elements": 5**7},
    "rgd": {"zsystem.collect.calls": 0},
}


def fail(message: str):
    print(f"FAIL {message}")
    sys.exit(1)


def check_workload(name: str, counts: list):
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    runner = run.Runner(name, seed=0)
    plain = [runner.run_pass(i) for i in range(2)]
    spans = os.path.join(run.OUT, f"selftest-{name}.jsonl")
    traced = [runner.run_pass(i, spans) for i in range(2, 4)]
    passes = plain + traced

    digests = [[inv["digest"] for inv in res["invocations"]] for res in passes]
    if any(d != digests[0] for d in digests):
        fail(f"{name}: digests differ between passes")
    _, failed = run.failures(passes, reference)
    if failed:
        fail(f"{name}: {failed[0]}")
    first, second = (res["layers"] for res in traced)
    moved = [c for c in counts if first[c] != second[c]]
    if moved:
        fail(f"{name}: counts differ between traced passes: {moved}")
    for metric, expected in STATED[name].items():
        if first[metric] != expected:
            fail(f"{name}: {metric} = {first[metric]}, expected {expected}")
    for res in traced:
        coverage = res["layers"]["cli.main.busy_s"] / res["pass_s"]
        if coverage < 0.9:
            fail(f"{name}: cli.main covers {coverage:.3f} of the traced pass")
    print(f"ok {name}: digests equal over 4 passes, {len(counts)} counts repeat")


def check_bare_directory():
    """run.py must refuse to report when the program is absent."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rgd", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py reported a result without the program")
    print("ok bare directory: run.py exits", proc.returncode, "without a result")


def main(names: list):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        counts = [m["name"] for m in json.load(fh)["per_layer"]
                  if m["unit"] == "count" and not m["name"].startswith("trace.")]
    for name in names or workloads.NAMES:
        check_workload(name, counts)
    check_bare_directory()


if __name__ == "__main__":
    main(sys.argv[1:])

"""zsys benchmark: times the `zsys` CLI on fixed workloads and checks its outputs.

    python3 bench/run.py --workload {search,verify,rgd} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Set-up is timed in separate fresh processes
(setup_probe.py).  Passes run one at a time, each in a fresh process
(worker.py), until S seconds have been spent on passes.  With `--trace 0`
the last stdout line reports the end-to-end metrics; with `--trace 1` the
passes alternate between untraced and traced, and it reports the per-layer
metrics of layers.py.  The line before it is the full record, which is also
written to `bench/out/`.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 9
# fixed string hashing, so that passes differ only in timing
ENV = dict(os.environ, PYTHONHASHSEED="0")
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    return statistics.quantiles(values, n=4)


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it,
    or None when there are too few samples."""
    ordered = sorted(values)
    best = None
    for pct in (50, 75, 90, 95, 99):
        idx = int(len(ordered) * pct / 100)
        if idx < len(ordered) and len(ordered) - idx - 1 >= 10:
            best = {"percentile": pct, "value": ordered[idx]}
    return best


def timing_record(values):
    q1, _, q3 = quartiles(values)
    return {"samples": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "tail": tail_percentile(values), "values": values}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "zsys", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


class Runner:
    """Starts the fresh processes of one run, one at a time, within its time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()

    def _child(self, script: str, *args) -> str:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 1:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, os.path.join(HERE, script), *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining, env=ENV)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{script} timed out after {err.timeout:.0f} s") from err
        if proc.returncode != 0:
            raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr.strip()}")
        return proc.stdout.strip().splitlines()[-1]

    def setup(self) -> float:
        return float(self._child("setup_probe.py", self.workload, self.seed))

    def run_pass(self, pass_id: int, spans_file: str | None = None) -> dict:
        args = [self.workload, self.seed, pass_id] + ([spans_file] if spans_file else [])
        return json.loads(self._child("worker.py", *args))


def failures(passes: list, reference: dict) -> tuple:
    """(attempted, list of failures) over all passes: invocations with a
    wrong exit code, an exception or a wrong output, and oracle mismatches."""
    attempted = 0
    failed = []
    for res in passes:
        for inv in res["invocations"]:
            attempted += 1
            if inv["problem"] is not None:
                failed.append({"key": inv["key"], "problem": inv["problem"]})
            elif inv["digest"] != reference.get(inv["key"]):
                failed.append({"key": inv["key"], "problem": f"digest {inv['digest']}"})
        attempted += res["oracle_checks"]
        failed.extend({"key": "oracle nf", "problem": p} for p in res["oracle_problems"])
    return attempted, failed


def end_to_end(workload: str, base: list, setups: list) -> tuple:
    walls = [res["pass_s"] for res in base]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in base), "MB"),
    }
    record = {"wall_s": timing_record(walls), "setup_s": timing_record(setups),
              "peak_rss_mb": [res["peak_rss_mb"] for res in base]}
    if workload == "search":
        record["candidates_per_s"] = workloads.SEARCH_CANDIDATES / statistics.median(walls)
    return metrics, record


def per_layer(base: list, traced: list) -> tuple:
    """Counts of the first traced pass (they must repeat exactly in every
    traced pass), medians of the times, and the tracing overhead."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    repeat = all(
        res["layers"][name] == traced[0]["layers"][name]
        for res in traced for name, unit in wanted.items() if unit == "count"
    )
    metrics = {}
    for name, unit in wanted.items():
        if name.startswith("trace."):
            continue
        values = [res["layers"][name] for res in traced]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    base_wall = statistics.median(res["pass_s"] for res in base)
    traced_wall = statistics.median(res["pass_s"] for res in traced)
    coverage = statistics.median(res["layers"]["cli.main.busy_s"] / res["pass_s"] for res in traced)
    metrics.update({
        "trace.overhead_ratio": (traced_wall / base_wall, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.base_wall_s": (base_wall, "s"),
        "trace.cli_coverage": (coverage, "ratio"),
    })
    return metrics, {"counts_repeat": repeat, "traced_passes": len(traced)}


def run(args) -> tuple:
    """The full record and the result line of one run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "zsys", "__init__.py")):
        raise BenchError(f"no zsys package under {os.path.join(ROOT, 'src')}")
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)

    # a set-up probe before each pass spreads the samples over the run
    setups = []
    base, traced, spans_files = [], [], []
    t0 = time.monotonic()
    last = 0.0
    while not base or (args.trace and not traced) or (
        time.monotonic() - t0 + last <= args.seconds
    ):
        pass_id = len(base) + len(traced)
        if not args.trace:
            setups.append(runner.setup())
        start = time.monotonic()
        if args.trace and len(traced) < len(base):
            path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}-pass{pass_id}.jsonl")
            traced.append(runner.run_pass(pass_id, path))
            spans_files.append(os.path.relpath(path, ROOT))
        else:
            base.append(runner.run_pass(pass_id))
        last = time.monotonic() - start
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup())

    attempted, failed = failures(base + traced, reference)
    if args.trace:
        metrics, detail = per_layer(base, traced)
        correct = not failed and detail["counts_repeat"]
        detail["spans_files"] = spans_files
    else:
        metrics, detail = end_to_end(args.workload, base, setups)
        correct = not failed
        metrics["ok_ratio"] = ((attempted - len(failed)) / attempted, "ratio")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "verify",
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "passes": len(base) + len(traced),
        "error_ratio": len(failed) / attempted,
        "failures": failed[:10],
        **detail,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args)
    except (BenchError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

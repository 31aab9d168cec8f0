"""One benchmark pass in a fresh process.

Imports `zsys` from the checkout's `src/`, runs every invocation of the
workload through `zsys.cli.main(argv)` with stdout captured (timed as the
pass), then, outside the timed region, digests and checks the outputs and
runs the matrix oracle check.  Prints one JSON object.

    python3 bench/worker.py WORKLOAD SEED PASS_ID [SPANS_FILE]

With SPANS_FILE the layer probes of layers.py are installed for the pass,
their aggregates are part of the result and the spans go to SPANS_FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import workloads

sys.path.insert(0, workloads.SRC)

import zsys.cli  # noqa: E402  (imported from the checkout, after the path is set)
from zsys.matgroup import make_example  # noqa: E402

LAYERS = ("laurent", "matgroup", "zsystem", "analysis", "rgd", "cli")


def invoke(argv: list) -> dict:
    """Run one CLI invocation in-process; looks up `zsys.cli.main` at call
    time, so an installed probe is used."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zsys.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash of the program under test is a failed invocation
        return {"code": None, "stdout": out.getvalue(), "error": traceback.format_exc()}
    return {"code": code, "stdout": out.getvalue(), "error": err.getvalue() or None}


def outcome(argv: list, res: dict) -> dict:
    problem = None
    dig = None
    if res["code"] != 0:
        problem = f"exit code {res['code']}: {res['error']}"
    else:
        try:
            dig = workloads.digest(argv, res["stdout"])
            problem = workloads.check(argv, res["stdout"])
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as err:
            problem = f"unreadable output: {err!r}"
    return {"key": workloads.key(argv), "digest": dig, "problem": problem}


def oracle_check(words: list) -> list:
    """`nf` of each seeded word on the derived unitary p=5 window against the
    normal form of the product of generator matrices from matgroup."""
    lo, hi = workloads.ORACLE_WINDOW
    example = make_example("unitary", 5)
    problems = []
    for left, right in words:
        text = f"{left} {right}"
        res = invoke(["nf", "--example", "unitary", "--p", "5",
                      "--window", str(lo), str(hi), "--word", text])
        matrix = example.u(lo, 0)  # the identity
        for chunk in text.split():
            idx, exp = (int(part) for part in chunk.split(":"))
            for _ in range(exp):
                matrix = matrix * example.u(idx, 1)
        try:
            expected = list(example.normal_form(matrix, lo, hi))
        except ValueError as err:
            expected = repr(err)
        try:
            got = json.loads(res["stdout"])["e"] if res["code"] == 0 else None
        except (ValueError, KeyError, TypeError) as err:
            got = repr(err)
        if got != expected:
            problems.append({"word": text, "expected": expected, "got": got,
                             "error": res["error"]})
    return problems


def run(workload: str, seed: int, pass_id: int, spans_file: str | None) -> dict:
    workloads.check_origin(zsys.cli)
    argvs = workloads.invocations(workload, seed)

    tracer = None
    if spans_file:
        import layers

        tracer = layers.Tracer({name: sys.modules[f"zsys.{name}"] for name in LAYERS}, pass_id)
        tracer.install()

    t0 = time.perf_counter()
    results = [invoke(argv) for argv in argvs]
    pass_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer_metrics = None
    if tracer is not None:
        tracer.uninstall()
        layer_metrics = tracer.metrics()
        tracer.write_spans(spans_file)

    words = workloads.oracle_words(seed) if workload == "verify" else []
    return {
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "invocations": [outcome(argv, res) for argv, res in zip(argvs, results)],
        "oracle_checks": len(words),
        "oracle_problems": oracle_check(words),
        "layers": layer_metrics,
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    result = run(args[0], int(args[1]), int(args[2]), args[3] if len(args) > 3 else None)
    sys.stdout.write(json.dumps(result) + "\n")

"""Command-line front end.

Subcommands map one-to-one onto module operations; all output is JSON on
stdout (JSON lines for `search`).  Exit codes: 0 when every requested check
passes, 1 when a check fails (the JSON carries witnesses), 2 for usage,
malformed-input, or resource errors.  Identical invocations produce
byte-identical payloads; wall-clock timings, when present, live in a separate
"timings" field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import analysis, rgd, zsystem
from .matgroup import make_example
from .zsystem import CapExceeded, WindowGroup, derive_window

CAP_ENV = "ZSYS_CLOSURE_CAP"


def _closure_cap(args) -> int:
    """The --cap value, else ZSYS_CLOSURE_CAP, else the default; a cap that is
    not positive is a usage error."""
    cap, source = getattr(args, "cap", None), "--cap"
    if cap is None:
        raw = os.environ.get(CAP_ENV)
        if raw is None:
            return zsystem.DEFAULT_CAP
        cap, source = int(raw), CAP_ENV
    if cap <= 0:
        raise ValueError(f"{source} must be positive, got {cap}")
    return cap


def _add_source_args(sub):
    sub.add_argument("--example", choices=["standard", "unitary"], help="matrix example family")
    sub.add_argument("--p", type=int, help="prime modulus (required with --example)")
    sub.add_argument("--table", metavar="FILE", help="window-group JSON file")
    sub.add_argument(
        "--window", nargs=2, type=int, metavar=("LO", "HI"), help="generator index window"
    )
    sub.add_argument("--cap", type=int, default=None, help="closure element cap")


def _load_window(args) -> WindowGroup:
    if args.table:
        try:
            with open(args.table) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ValueError(f"cannot read table file: {err}") from err
        return WindowGroup.from_json_dict(data)
    if not args.example or args.p is None:
        raise ValueError("need --example with --p, or --table")
    if getattr(args, "window", None) is None:
        raise ValueError("--window LO HI is required with --example")
    lo, hi = args.window
    return derive_window(make_example(args.example, args.p), lo, hi)


def _parse_word(text: str) -> list:
    word = []
    for chunk in text.split():
        try:
            idx, exp = chunk.split(":")
            word.append((int(idx), int(exp)))
        except ValueError as err:
            raise ValueError(f"malformed word chunk {chunk!r}; expected INDEX:EXP") from err
    return word


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def _emit(payload, pretty: bool):
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _element_payload(wg: WindowGroup, vec) -> dict:
    stats = wg.stats_vec(vec)
    return {
        "e": list(vec),
        "start": _jsonable(stats.start),
        "end": _jsonable(stats.end),
        "width": stats.width,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zsys",
        description="Exact window-scale computations with Z-systems of prime order.",
    )
    parser.add_argument("--output", choices=["json", "pretty"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("derive", "axioms", "class", "lemmas", "nf", "comm", "shiftinv"):
        s = sub.add_parser(name)
        _add_source_args(s)
        if name == "nf":
            s.add_argument("--word", required=True, help='e.g. "2:1 0:1"')
        if name == "comm":
            s.add_argument("--left", required=True)
            s.add_argument("--right", required=True)
        if name == "shiftinv":
            s.add_argument("--a", required=True, help="first seed word")
            s.add_argument("--b", required=True, help="second seed word")
        if name == "lemmas":
            s.add_argument("--trials", type=int, default=50)
            s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("cutoff")
    _add_source_args(s)
    s.add_argument("--bound", type=int, required=True)

    s = sub.add_parser("rgd")
    s.add_argument("--example", choices=["standard", "unitary"], required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--K", type=int, default=4)

    s = sub.add_parser("search")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    s.add_argument("--support-bound", type=int, default=1)
    s.add_argument("--depth", type=int, default=1, help="extension depth to certify")
    s.add_argument("--cap", type=int, default=None)

    args = parser.parse_args(argv)
    pretty = args.output == "pretty"

    try:
        cap = _closure_cap(args)

        if args.command == "derive":
            wg = _load_window(args)
            _emit(wg.to_json_dict(), pretty)
            return 0

        if args.command == "axioms":
            wg = _load_window(args)
            t0 = time.perf_counter()
            report = zsystem.verify_zs_axioms(wg, cap)
            report["timings"] = {"seconds": time.perf_counter() - t0}
            _emit(report, pretty)
            return 0 if report["pass"] else 1

        if args.command == "class":
            wg = _load_window(args)
            _emit({"class": analysis.nilpotency_class(wg, cap)}, pretty)
            return 0

        if args.command == "lemmas":
            if args.trials < 1:
                raise ValueError(f"--trials must be at least 1, got {args.trials}")
            wg = _load_window(args)
            t0 = time.perf_counter()
            report = analysis.lemma_checks(wg, cap, trials=args.trials, seed=args.seed)
            report["timings"] = {"seconds": time.perf_counter() - t0}
            _emit(report, pretty)
            return 0 if report["pass"] else 1

        if args.command == "cutoff":
            if args.table:
                target = _load_window(args)
            else:
                if not args.example or args.p is None:
                    raise ValueError("need --example with --p, or --table")
                target = make_example(args.example, args.p)
            result = analysis.lower_cutoff(target, args.bound)
            payload = {"cutoff": result.value if result.value is not None else "abelian-within-bound"}
            if result.witness is not None:
                payload["witness"] = list(result.witness)
            _emit(payload, pretty)
            return 0

        if args.command == "nf":
            wg = _load_window(args)
            vec = wg.collect(_parse_word(args.word))
            _emit(_element_payload(wg, vec), pretty)
            return 0

        if args.command == "comm":
            wg = _load_window(args)
            left = wg.collect(_parse_word(args.left))
            right = wg.collect(_parse_word(args.right))
            _emit(_element_payload(wg, wg.comm_vec(left, right)), pretty)
            return 0

        if args.command == "shiftinv":
            wg = _load_window(args)
            a = wg.collect(_parse_word(args.a))
            b = wg.collect(_parse_word(args.b))
            sub_group, info = analysis.shift_invariant_closure(wg, a, b, cap)
            payload = {
                "order": sub_group.order,
                "generators": [list(v) for v in sub_group.generators],
                **info,
            }
            _emit(payload, pretty)
            return 0

        if args.command == "rgd":
            example = make_example(args.example, args.p)
            t0 = time.perf_counter()
            report = rgd.rgd_check(example, args.K)
            report["timings"] = {"seconds": time.perf_counter() - t0}
            if pretty:
                from .rootsystem import ladder_str

                print(ladder_str(args.K), file=sys.stderr)
            _emit(report, pretty)
            return 0 if report["pass"] else 1

        if args.command == "search":
            if args.depth < 1:
                raise ValueError(f"--depth must be at least 1, got {args.depth}")
            lo, hi = args.window
            for item in analysis.search_tables(
                args.p, lo, hi, args.support_bound, cap, args.depth
            ):
                print(json.dumps(item, separators=(",", ":")))
            return 0

        raise ValueError(f"unknown subcommand {args.command!r}")

    except CapExceeded as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

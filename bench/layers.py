"""Layer tracing for the benchmark, installed from outside the package.

Each probe wraps one or more functions of a `zsys` module, patched at every
name through which the package looks it up (a module global, an imported
name in another module, or a class attribute).  Nothing under `src/` is
edited: the probes are installed in a worker process after `zsys` is imported.

For each probe the tracer keeps:

- `calls`: entries that are not nested inside the same probe (a subtraction
  that adds a negation, or a recursive call, counts once);
- `busy`: wall time during which at least one call of the probe is active;
- `self`: busy time minus the time of nested calls of other probes.

Probes on the hot paths (`mul_vec`, `collect`, `mul_terms` and the other
leaf arithmetic) keep only these aggregates.  The others also record one span
per outermost call, `(name, start, end, span id, parent span id, pass id)`,
kept in memory and written out when the pass ends.
"""

from __future__ import annotations

import json
import time

# probe name, kind, and the (module, attribute path) names through which the
# package reaches the probed functions; each name gets its own wrapper
HOT = "hot"
SPAN = "span"

PROBES = [
    # laurent
    ("laurent.mul_terms", HOT, [("laurent", "mul_terms"), ("matgroup", "mul_terms")]),
    ("laurent.poly_mul", HOT, [("laurent", "LaurentPoly.__mul__")]),
    (
        "laurent.poly_addsub",
        HOT,
        [("laurent", "LaurentPoly.__add__"), ("laurent", "LaurentPoly.__sub__")],
    ),
    # matgroup
    ("matgroup.mat_mul", HOT, [("matgroup", "LaurentMatrix.__mul__")]),
    ("matgroup.mat_inv", HOT, [("matgroup", "LaurentMatrix.inv")]),
    (
        "matgroup.commutator",
        SPAN,
        [
            ("matgroup", "commutator"),
            ("rgd", "commutator"),
            ("zsystem", "mat_commutator"),
            ("analysis", "mat_commutator"),
        ],
    ),
    (
        "matgroup.normal_form",
        SPAN,
        [
            ("matgroup", "StandardExample.normal_form"),
            ("matgroup", "StandardExample.normal_form_negative"),
            ("matgroup", "UnitaryExample.normal_form"),
            ("matgroup", "UnitaryExample.normal_form_negative"),
        ],
    ),
    (
        "matgroup.root_of",
        SPAN,
        [("matgroup", "StandardExample.root_of"), ("matgroup", "UnitaryExample.root_of")],
    ),
    # zsystem
    ("zsystem.mul_vec", HOT, [("zsystem", "WindowGroup.mul_vec")]),
    ("zsystem.collect", HOT, [("zsystem", "WindowGroup.collect")]),
    ("zsystem.inv_vec", HOT, [("zsystem", "WindowGroup.inv_vec")]),
    ("zsystem.pow_vec", HOT, [("zsystem", "WindowGroup.pow_vec")]),
    ("zsystem.window_new", HOT, [("zsystem", "WindowGroup.__init__")]),
    ("zsystem.closure", SPAN, [("zsystem", "closure"), ("analysis", "closure")]),
    ("zsystem.overlap_violation", SPAN, [("zsystem", "overlap_violation")]),
    (
        "zsystem.verify_zs_axioms",
        SPAN,
        [("zsystem", "verify_zs_axioms"), ("analysis", "verify_zs_axioms")],
    ),
    ("zsystem.derive_window", SPAN, [("zsystem", "derive_window"), ("cli", "derive_window")]),
    # analysis
    ("analysis.nilpotency_class", SPAN, [("analysis", "nilpotency_class")]),
    ("analysis.normal_closure", SPAN, [("analysis", "normal_closure")]),
    ("analysis.lemma_checks", SPAN, [("analysis", "lemma_checks")]),
    ("analysis.shift_invariant_closure", SPAN, [("analysis", "shift_invariant_closure")]),
    ("analysis.extendable", SPAN, [("analysis", "extendable")]),
    # rgd
    ("rgd.rgd_check", SPAN, [("rgd", "rgd_check")]),
    ("rgd.rgd3_m_map", SPAN, [("rgd", "rgd3_m_map")]),
    # cli
    ("cli.main", SPAN, [("cli", "main")]),
]

# search_tables is a generator: each next() is one call of this probe
SEARCH = "analysis.search"
SEARCH_PHASES = {
    "zsystem.verify_zs_axioms": "consistency_s",
    "analysis.nilpotency_class": "class_s",
    "analysis.extendable": "extension_s",
}
CLI_SUBCOMMANDS = ("search", "derive", "axioms", "class", "lemmas", "shiftinv", "rgd")


class Probe:
    __slots__ = ("name", "spans", "calls", "busy", "self_time", "active")

    def __init__(self, name: str, spans: bool):
        self.name = name
        self.spans = spans
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Aggregates and spans for one pass; install() patches the package."""

    def __init__(self, modules: dict, pass_id: int):
        self.modules = modules
        self.pass_id = pass_id
        self.probes = {}
        # a frame is [child time, span id seen by children, probe]
        self.stack = [[0.0, None, None]]
        self.spans = []
        self.counts = {
            "zsystem.mul_vec.generic_calls": 0,
            "zsystem.collect.letters": 0,
            "zsystem.closure.elements": 0,
            "zsystem.closure.max_elements": 0,
            "zsystem.overlap_violation.violations": 0,
            "zsystem.verify_zs_axioms.passed": 0,
            "analysis.search.candidates": 0,
            "analysis.search.tables": 0,
            "analysis.extension.nodes": 0,
        }
        self.search_phase = dict.fromkeys(SEARCH_PHASES.values(), 0.0)
        self.cli_busy = dict.fromkeys(CLI_SUBCOMMANDS, 0.0)
        self._saved = []

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, kind, targets in PROBES:
            probe = self.probes[name] = Probe(name, kind == SPAN)
            observe = self._observer(name)
            for module_name, path in targets:
                wrapped = self._wrap(self._lookup(module_name, path), probe, observe)
                self._patch(module_name, path, wrapped)
        probe = self.probes[SEARCH] = Probe(SEARCH, True)
        self._patch("analysis", "search_tables", self._wrap_search(probe))

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    def _lookup(self, module_name: str, path: str):
        obj = self.modules[module_name]
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _patch(self, module_name: str, path: str, value):
        owner_path, _, attr = path.rpartition(".")
        owner = self._lookup(module_name, owner_path) if owner_path else self.modules[module_name]
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, probe: Probe, observe=None):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        pass_id = self.pass_id

        def traced(*args, **kwargs):
            outer = probe.active == 0
            parent = stack[-1]
            record = outer and probe.spans
            if record:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
            else:
                span_id = parent[1]
            frame = [0.0, span_id, probe]
            probe.active += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                probe.active -= 1
                dt = t1 - t0
                parent[0] += dt
                probe.self_time += dt - frame[0]
                if outer:
                    probe.calls += 1
                    probe.busy += dt
                    if record:
                        spans[span_id] = (probe.name, t0, t1, span_id, parent[1], pass_id)
            if observe is not None:
                observe(parent[2], args, result, dt)
            return result

        return traced

    def _wrap_search(self, probe: Probe):
        original = self.modules["analysis"].search_tables
        counts = self.counts

        def traced_search(*args, **kwargs):
            step = self._wrap(next, probe)
            gen = original(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts["analysis.search.tables"] += 1
                yield item

        return traced_search

    # -- per-probe counters ----------------------------------------------------

    def _observer(self, name: str):
        counts = self.counts
        probes = self.probes

        if name == "zsystem.collect":

            def observe(parent, args, result, dt):
                counts["zsystem.collect.letters"] += len(args[1])
                if parent is not None and parent.name == "zsystem.mul_vec":
                    counts["zsystem.mul_vec.generic_calls"] += 1

        elif name == "zsystem.closure":

            def observe(parent, args, result, dt):
                counts["zsystem.closure.elements"] += len(result)
                if len(result) > counts["zsystem.closure.max_elements"]:
                    counts["zsystem.closure.max_elements"] = len(result)

        elif name == "zsystem.overlap_violation":

            def observe(parent, args, result, dt):
                if result is not None:
                    counts["zsystem.overlap_violation.violations"] += 1

        elif name == "zsystem.verify_zs_axioms":

            def observe(parent, args, result, dt):
                if result["pass"]:
                    counts["zsystem.verify_zs_axioms.passed"] += 1
                if parent is not None and parent.name == SEARCH:
                    self.search_phase[SEARCH_PHASES[name]] += dt

        elif name in SEARCH_PHASES:

            def observe(parent, args, result, dt):
                if parent is not None and parent.name == SEARCH:
                    self.search_phase[SEARCH_PHASES[name]] += dt

        elif name == "zsystem.window_new":

            def observe(parent, args, result, dt):
                if probes["analysis.extendable"].active:
                    counts["analysis.extension.nodes"] += 1
                elif parent is not None and parent.name == SEARCH:
                    counts["analysis.search.candidates"] += 1

        elif name == "cli.main":

            def observe(parent, args, result, dt):
                argv = args[0] if args else []
                command = next((a for a in argv if not a.startswith("-")), None)
                if command in self.cli_busy:
                    self.cli_busy[command] += dt

        else:
            return None
        return observe

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer aggregates of the pass, keyed by metric name."""
        out = {}
        for name, probe in self.probes.items():
            out[f"{name}.calls"] = probe.calls
            out[f"{name}.busy_s"] = probe.busy
            out[f"{name}.self_s"] = probe.self_time
        out.update(self.counts)
        search = self.probes[SEARCH]
        phases = self.search_phase
        out.update({f"{SEARCH}.{k}": v for k, v in phases.items()})
        out[f"{SEARCH}.enum_s"] = search.busy - sum(phases.values())
        candidates = self.counts["analysis.search.candidates"]
        tables = self.counts["analysis.search.tables"]
        out[f"{SEARCH}.consistent_ratio"] = tables / candidates if candidates else 0.0
        out.update({f"cli.{k}.busy_s": v for k, v in self.cli_busy.items()})
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                name, start, end, span_id, parent, pass_id = span
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "id": span_id,
                         "parent": parent, "pass": pass_id},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

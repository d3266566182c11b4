"""Per-layer tracing of one neurec run, applied from outside the package.

The package itself carries no instrumentation.  This module wraps each
layer's public functions under every name its callers use (for example
``neurec.verify.detect_cycle`` and ``neurec.cycles.advance_word`` are the
same wrapper), records one span per call in memory and writes them out when
the run ends.  A span is ``(name, start, end, parent)``; a layer's self time
is its spans' durations minus the time their child spans cover.

Run as a script it has two subcommands, both executed in a fresh child
process by ``run.py``:

    python3 bench/spans.py trace --out spans.json -- <neurec cli args>
    python3 bench/spans.py probe

``trace`` runs ``neurec.cli.main`` under the wrappers and writes the spans
and counters; ``probe`` times ``advance_word`` per family and scale.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("numtheory", "construction", "engine", "cycles", "verify", "cli")

# Per-bit closed forms are called ~1e5 times per pass; their cost stays in
# the caller's self time instead of costing a span each.
UNWRAPPED = {"x_closed_form", "y_closed_form"}

# Short span names for the functions the per-layer metrics single out.
SPAN_NAMES = {
    "advance_word": "advance",
    "run": "run",
    "compile_system": "compile",
    "detect_cycle": "detect",
    "verify_predicted": "verify",
    "export_trace": "export",
}

# check_* functions of the verify layer and the claim each one runs.
CLAIM_OF = {
    "check_phases": lambda a, k: "phases",
    "check_chain": lambda a, k: "chain",
    "check_basin": lambda a, k: "basin",
    "check_static": lambda a, k: a[0] if a else k["claim"],
    "check_dynamics": lambda a, k: a[0] if a else k["claim"],
    "check_composition": lambda a, k: a[0] if a else k["claim"],
}

PROBE_SCALES = (6, 11, 16, 21)
PROBE_FAMILIES = ("y", "z0", "zlast", "w0")
PROBE_STEPS = 50_000
PROBE_REPS = 3


class Tracer:
    """In-memory span list plus counters recorded at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.proof_keys: set = set()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> None:
        self.spans.append((name, start, end, parent))

    def wrap(self, fn, name: str, hook=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                if hook is not None:
                    hook(self, name, args, kwargs, None, exc)
                raise
            spans[idx] = (name, start, clock(), parent)
            stack.pop()
            if hook is not None:
                hook(self, name, args, kwargs, result, None)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_steps(tr, span, a, k, res, exc):
    tr.counts[f"{span}.steps"] += _arg(a, k, 2, "steps")


def _count_proof(tr, span, a, k, res, exc):
    cs = _arg(a, k, 0, "cs")
    tr.counts["verify.proofs.total"] += 1
    tr.proof_keys.add((cs.memory, cs.taps, cs.scaled_threshold, tuple(_arg(a, k, 1, "init"))))
    tr.counts["verify.proofs.distinct"] = len(tr.proof_keys)
    if exc is None:
        tr.counts[f"{span}.steps"] += res.steps_executed
        tr.counts[f"{span}.tp"] += res.measured_transient + res.measured_period
    elif type(exc).__name__ == "BudgetExceeded":
        tr.counts["cycles.budget_exceeded"] += 1


def _count_instances(tr, span, a, k, res, exc):
    if res is not None:
        tr.counts["verify.instances"] += len(res)
        tr.counts["verify.instances_failed"] += sum(not r.passed for r in res)


def _count_export(tr, span, a, k, res, exc):
    path = Path(_arg(a, k, 1, "path"))
    if path.exists():
        tr.counts["cli.export.bytes"] += path.stat().st_size


# Counters recorded when a wrapped call returns or raises, by span name.
HOOKS = {
    "engine.advance": _count_steps,
    "engine.run": _count_steps,
    "cycles.detect": _count_proof,
    "cycles.verify": _count_proof,
    "verify.run_claims": _count_instances,
    "cli.export": _count_export,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every layer's public functions wherever the package binds them.

    Each function gets one wrapper, rebound under every module attribute
    that refers to it, so a caller sees the same span whichever module it
    imported the name from.
    """
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for fname in names:
            fn = getattr(mod, fname, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or fname in UNWRAPPED:
                continue
            span = f"{layer}.{SPAN_NAMES.get(fname, fname)}"
            wrapped[id(fn)] = tracer.wrap(fn, span, HOOKS.get(span))
            if fname in CLAIM_OF:
                wrapped[id(fn)] = _claim_wrapper(tracer, wrapped[id(fn)], CLAIM_OF[fname])
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(mod, attr, wrapped[id(value)])


def _claim_wrapper(tracer: Tracer, traced, claim_of):
    """Add the inclusive wall time of one claim instance to its claim."""

    @functools.wraps(traced)
    def timed(*args, **kwargs):
        start = tracer.clock()
        try:
            return traced(*args, **kwargs)
        finally:
            tracer.counts[f"verify.claim.{claim_of(args, kwargs)}.s"] += tracer.clock() - start

    return timed


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metric values from one traced run's spans and counters."""
    spans = [tuple(s) for s in doc["spans"]]
    selfs = self_times(spans)
    by_span: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        by_span[name] += s
        by_layer[layer] += s
        calls[layer] += 1
        calls[name] += 1
    counts = defaultdict(float, doc["counts"])

    def rate(steps: float, secs: float) -> float:
        return steps / secs / 1e6 if secs > 0 else 0.0

    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m |= {
        "numtheory.calls": calls["numtheory"],
        "construction.calls": calls["construction"],
        "engine.compile.calls": calls["engine.compile"],
        "engine.compile.self_s": by_span["engine.compile"],
        "engine.advance.steps": counts["engine.advance.steps"],
        "engine.advance.self_s": by_span["engine.advance"],
        "engine.advance.msteps_per_s": rate(counts["engine.advance.steps"], by_span["engine.advance"]),
        "engine.run.steps": counts["engine.run.steps"],
        "engine.run.self_s": by_span["engine.run"],
        "engine.run.msteps_per_s": rate(counts["engine.run.steps"], by_span["engine.run"]),
        "cycles.detect.calls": calls["cycles.detect"],
        "cycles.detect.steps": counts["cycles.detect.steps"],
        "cycles.detect.self_s": by_span["cycles.detect"],
        "cycles.detect.steps_per_tp": (
            counts["cycles.detect.steps"] / counts["cycles.detect.tp"]
            if counts["cycles.detect.tp"]
            else 0.0
        ),
        "cycles.verify.calls": calls["cycles.verify"],
        "cycles.verify.steps": counts["cycles.verify.steps"],
        "cycles.verify.self_s": by_span["cycles.verify"],
        "cycles.budget_exceeded": counts["cycles.budget_exceeded"],
        "verify.instances": counts["verify.instances"],
        "verify.instances_failed": counts["verify.instances_failed"],
        "verify.proofs.total": counts["verify.proofs.total"],
        "verify.proofs.distinct": counts["verify.proofs.distinct"],
        "cli.export.self_s": by_span["cli.export"],
        "cli.export.bytes": counts["cli.export.bytes"],
        "trace.spans": len(spans),
        "trace.self_s": sum(selfs),
    }
    m |= {k: v for k, v in counts.items() if k.startswith("verify.claim.")}
    return m


# ---------------------------------------------------------------------------
# child-process entry points


def _cmd_trace(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    start = tracer.clock()
    import neurec
    import neurec.cli

    tracer.add("import", start, tracer.clock())
    install(tracer, neurec)
    code = 2
    try:
        code = neurec.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump() | {"exit": code, "package": neurec.__file__}, fh)
    return code


def _cmd_probe() -> int:
    from neurec import advance_word, build_w, build_y, build_z, compile_system, window_params
    from neurec.engine import word_from_bits

    rates = {}
    for m in PROBE_SCALES:
        p = window_params(m)
        systems = {
            "y": build_y(p),
            "z0": build_z(p, 0),
            "zlast": build_z(p, p.rho - 1),
            "w0": build_w(p, 0),
        }
        for family in PROBE_FAMILIES:
            cs = compile_system(systems[family])
            word = word_from_bits(systems[family].init)
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                advance_word(cs, word, PROBE_STEPS)
                times.append(time.perf_counter() - t0)
            rate = PROBE_STEPS / statistics.median(times) / 1e6
            rates[f"engine.advance.msteps_per_s.{family}.m{m}"] = rate
    print(json.dumps(rates))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    tr = sub.add_parser("trace", help="run the neurec CLI under the layer wrappers")
    tr.add_argument("--out", required=True, help="where to write spans and counters (JSON)")
    tr.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the neurec CLI arguments")
    sub.add_parser("probe", help="time advance_word per family and scale")
    args = parser.parse_args(argv)
    if args.cmd == "trace":
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return _cmd_trace(args.out, cli_args)
    return _cmd_probe()


if __name__ == "__main__":
    sys.exit(main())

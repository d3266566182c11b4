"""Command-line front end.

One batch entry point with six modes:

  construct   build the requested systems and emit their exact descriptions
  simulate    run one system for a fixed number of steps
  cycle       measure (transient, period) for the standard family members
  verify      run the claim registry over a scale grid
  chain       the full period chain claim per scale
  basin       the free-prefix basin claim per scale and step

Every run produces one JSON report (printed to stdout, or written to
--out/report.json together with a summary.csv of all cycle measurements).
Reports are deterministic for fixed (m, d, seed, budget) apart from the
wall_clock_s field.  Exit status: 0 all checks passed, 1 some claim or
prediction failed, 2 configuration or I/O trouble.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

from . import __version__
from . import construction as cons
from .construction import RecurrenceSystem
from .engine import compile_system, run
from .errors import BudgetExceeded, HypothesisUnmet, NeurecError, PredictionFailed, RhoTooSmall
from .numtheory import WindowParams, window_params
from .verify import (
    ALL_CLAIMS,
    MEASURE_CUTOFF,
    ClaimResult,
    _frac,
    attempt,
    check_basin,
    check_chain,
    claim_instances,
    measure_cycle,
    predicted_cycle,
    run_claims,
)

MODES = ("construct", "simulate", "cycle", "verify", "chain", "basin")
FAMILIES = ("x", "v", "y", "w", "z")
TRACE_FORMATS = ("text-bits", "run-length")
DEFAULT_MS = (6, 11)
LONG_MS = (16, 21)


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration (file values overridden by flags)."""

    mode: str = "verify"
    m: list[int] = field(default_factory=lambda: list(DEFAULT_MS))
    d: list[int] | None = None
    system: str | None = None
    lane: int | None = None
    steps: int | None = None
    budget: int | None = None
    claims: list[str] | None = None
    out: str | None = None
    emit_traces: bool = False
    trace_format: str = "text-bits"
    seed: int = 0
    long: bool = False


@dataclass
class RunReport:
    """Everything one invocation produced."""

    version: str
    mode: str
    config: dict
    params_summary: list[dict]
    cycle_reports: list[dict]
    claim_results: list[dict]
    wall_clock_s: float

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# trace and system serialization


def export_trace(trace: Sequence[int], path: str | Path, fmt: str, memory: int) -> None:
    """Write a trace as text-bits (wrapped every memory symbols) or run-length."""
    path = Path(path)
    if fmt == "text-bits":
        chars = "".join("1" if b else "0" for b in trace)
        lines = [chars[i : i + memory] for i in range(0, len(chars), memory)]
        path.write_text("\n".join(lines) + "\n")
        return
    if fmt == "run-length":
        lines = []
        idx = 0
        while idx < len(trace):
            val = trace[idx]
            end = idx
            while end < len(trace) and trace[end] == val:
                end += 1
            lines.append(f"{1 if val else 0}×{end - idx}")
            idx = end
        path.write_text("\n".join(lines) + "\n")
        return
    raise ValueError(f"unknown trace format {fmt!r}")


def import_trace(path: str | Path) -> list[int]:
    """Read either trace format back; the round trip is exact."""
    text = Path(path).read_text()
    body = text.strip()
    if not body:
        return []
    if "×" in body or re.search(r"^[01]x\d+$", body.splitlines()[0]):
        trace: list[int] = []
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            val_s, count_s = re.split(r"[×x]", line, maxsplit=1)
            trace.extend([int(val_s)] * int(count_s))
        return trace
    return [int(c) for c in body if c in "01"]


def _rational_parse(s: str):
    return Fraction(s) if "/" in s else int(s)


def system_to_json(system: RecurrenceSystem) -> dict:
    """Exact sparse description of one system (weights keyed by offset j)."""
    return {
        "format": "neurec-system",
        "version": 1,
        "label": system.label,
        "memory": system.memory,
        "threshold": _frac(system.threshold),
        "weights": {
            str(j): _frac(w)
            for j, w in enumerate(system.weights, start=1)
            if w != 0
        },
        "init": "".join("1" if b else "0" for b in system.init),
    }


def system_from_json(doc: dict) -> RecurrenceSystem:
    memory = int(doc["memory"])
    weights = [0] * memory
    for j_s, w_s in doc["weights"].items():
        weights[int(j_s) - 1] = _rational_parse(w_s)
    return RecurrenceSystem(
        memory=memory,
        weights=tuple(weights),
        threshold=_rational_parse(doc["threshold"]),
        init=tuple(int(c) for c in doc["init"]),
        label=doc.get("label", ""),
    )


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")


# ---------------------------------------------------------------------------
# family enumeration shared by construct and cycle modes


def _selected_ds(params: WindowParams, config: ExperimentConfig) -> list[int]:
    if config.d is None:
        return list(range(params.rho))
    for d in config.d:
        params.check_lane(d, "d")
    return list(config.d)


def _family_members(
    params: WindowParams, config: ExperimentConfig
) -> Iterable[tuple[str, int | None, RecurrenceSystem]]:
    families = FAMILIES if config.system is None else (config.system,)
    lanes = range(params.rho) if config.lane is None else (config.lane,)
    for fam in families:
        if fam in ("x", "v"):
            for i in lanes:
                params.check_lane(i)
                builder = cons.single_system if fam == "x" else cons.destabilized_system
                yield fam, i, builder(params, i)
        elif fam == "y":
            yield fam, None, cons.build_y(params)
        elif fam in ("w", "z"):
            builder = cons.build_w if fam == "w" else cons.build_z
            for d in _selected_ds(params, config):
                yield fam, d, builder(params, d)
        else:
            raise ValueError(f"unknown family {fam!r}")


def _cycle_rows(params: WindowParams, config: ExperimentConfig) -> list[dict]:
    rows = []
    for fam, idx, system in _family_members(params, config):
        pred = predicted_cycle(params, fam, idx)
        entry = {
            "system": system.label,
            "m": params.m,
            "d": idx if fam in ("w", "z") else None,
            "lane": idx if fam in ("x", "v") else None,
            "T_predicted": pred[0],
            "P_predicted": pred[1],
        }
        if config.budget is None and pred[0] + pred[1] > MEASURE_CUTOFF:
            entry |= {
                "T_measured": None,
                "P_measured": None,
                "match": None,
                "note": "skipped: predicted work exceeds cutoff",
            }
            rows.append(entry)
            continue
        try:
            rep, route = measure_cycle(system, pred, config.budget)
            entry |= {
                "T_measured": rep.measured_transient,
                "P_measured": rep.measured_period,
                "match": bool(rep.matches),
                "route": route,
                "steps": rep.steps_executed,
            }
        except BudgetExceeded as exc:
            entry |= {
                "T_measured": None,
                "P_measured": None,
                "match": False,
                "note": f"budget exceeded after {exc.steps} steps",
            }
        except PredictionFailed as exc:
            entry |= {
                "T_measured": None,
                "P_measured": None,
                "match": False,
                "note": f"prediction failed: {exc.check}",
            }
        rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# mode implementations


def _params_summary(ms: Sequence[int]) -> list[dict]:
    out = []
    for m in ms:
        try:
            p = window_params(m)
            out.append(
                {
                    "m": m,
                    "rho": p.rho,
                    "primes": list(p.primes),
                    "k": p.k,
                    "h": p.h,
                    "mu": list(p.mu),
                    "beta": list(p.beta_m),
                }
            )
        except RhoTooSmall as exc:
            out.append({"m": m, "error": str(exc)})
    return out


def _claim_dicts(results: Sequence[ClaimResult]) -> list[dict]:
    return [
        {"claim": r.claim, "params": r.params, "passed": r.passed, "detail": r.detail}
        for r in results
    ]


def _resolved_ms(config: ExperimentConfig) -> list[int]:
    ms = list(config.m)
    if config.long:
        ms.extend(m for m in LONG_MS if m not in ms)
    return ms


def cmd_run(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute one configured run and assemble its report."""
    start = time.perf_counter()
    ms = _resolved_ms(config)
    cycle_reports: list[dict] = []
    claim_results: list[ClaimResult] = []
    traces: list[tuple[str, list[int], int]] = []

    if config.mode == "verify":
        claim_results = run_claims(
            ms=ms, claims=config.claims, seed=config.seed, budget=config.budget
        )
    elif config.mode == "cycle":
        for m in ms:
            cycle_reports.extend(_cycle_rows(window_params(m), config))
    elif config.mode == "chain":
        for m in ms:
            if claim_instances("chain", m):
                claim_results.append(
                    attempt("chain", {"m": m}, check_chain, m, budget=config.budget)
                )
            else:
                claim_results.append(
                    ClaimResult(
                        "chain",
                        {"m": m},
                        False,
                        {"error": "skipped: predicted work exceeds cutoff"},
                    )
                )
    elif config.mode == "basin":
        for m in ms:
            ds = config.d if config.d is not None else [
                kw["d"] for kw in claim_instances("basin", m)
            ]
            for d in ds:
                claim_results.append(
                    attempt(
                        "basin",
                        {"m": m, "d": d},
                        check_basin,
                        m,
                        d,
                        seed=config.seed,
                        budget=config.budget,
                    )
                )
    elif config.mode == "construct":
        for m in ms:
            params = window_params(m)
            for fam, idx, system in _family_members(params, config):
                doc = system_to_json(system)
                pred = predicted_cycle(params, fam, idx)
                doc["predicted_transient"], doc["predicted_period"] = pred
                cycle_reports.append(doc)
    elif config.mode == "simulate":
        for m in ms:
            params = window_params(m)
            sim_config = config if config.system is not None else _with_system(config, "y")
            for fam, idx, system in _family_members(params, sim_config):
                steps = config.steps if config.steps is not None else 2 * system.memory
                trace = run(compile_system(system), system.init, steps)
                cycle_reports.append(
                    {
                        "system": system.label,
                        "m": m,
                        "steps": steps,
                        "trace_len": len(trace),
                        "ones": sum(trace),
                    }
                )
                if config.emit_traces:
                    traces.append((system.label, trace, system.memory))
    else:
        raise ValueError(f"unknown mode {config.mode!r}")

    report = RunReport(
        version=__version__,
        mode=config.mode,
        config=asdict(config),
        params_summary=_params_summary(ms),
        cycle_reports=cycle_reports,
        claim_results=_claim_dicts(claim_results),
        wall_clock_s=round(time.perf_counter() - start, 3),
    )

    failed_claims = any(not r.passed for r in claim_results)
    failed_cycles = any(row.get("match") is False for row in cycle_reports)
    code = 1 if (failed_claims or failed_cycles) else 0
    _write_outputs(report, traces, config)
    return report, code


def _with_system(config: ExperimentConfig, system: str) -> ExperimentConfig:
    clone = ExperimentConfig(**asdict(config))
    clone.system = system
    return clone


def _csv_rows(report: RunReport) -> list[dict]:
    """Flatten every cycle measurement in the report into the summary table."""
    rows = []

    def add(system, m, d, t_m, p_m, t_p, p_p, match):
        rows.append(
            {
                "system": system,
                "m": m,
                "d": d if d is not None else "",
                "T_measured": t_m if t_m is not None else "",
                "P_measured": p_m if p_m is not None else "",
                "T_predicted": t_p if t_p is not None else "",
                "P_predicted": p_p if p_p is not None else "",
                "match": "" if match is None else str(bool(match)),
            }
        )

    for row in report.cycle_reports:
        if "T_predicted" in row:
            add(
                row.get("system"),
                row.get("m"),
                row.get("d"),
                row.get("T_measured"),
                row.get("P_measured"),
                row.get("T_predicted"),
                row.get("P_predicted"),
                row.get("match"),
            )
    for res in report.claim_results:
        claim = res["claim"]
        m = res["params"].get("m")
        d = res["params"].get("d")
        detail = res["detail"]
        if claim in ("y_cycle", "w_cycle", "z_summary") and "T" in detail:
            add(claim, m, d, detail["T"], detail["P"], detail["T_pred"], detail["P_pred"], res["passed"])
        elif claim in ("x_cycle", "v_fixed") and "per_lane" in detail:
            for lane, rep in sorted(detail["per_lane"].items()):
                add(f"{claim}[i={lane}]", m, None, rep["T"], rep["P"], rep["T_pred"], rep["P_pred"], None)
        elif claim == "chain" and "systems" in detail:
            for name, rep in sorted(detail["systems"].items()):
                add(f"chain[{name}]", m, d, rep["T"], rep["P"], rep["T_pred"], rep["P_pred"], None)
    return rows


def _write_outputs(report: RunReport, traces, config: ExperimentConfig) -> None:
    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if config.out is None:
        print(doc)
        return
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(doc + "\n")
    rows = _csv_rows(report)
    with (out_dir / "summary.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "system",
                "m",
                "d",
                "T_measured",
                "P_measured",
                "T_predicted",
                "P_predicted",
                "match",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    for label, trace, memory in traces:
        suffix = "txt" if config.trace_format == "text-bits" else "rle"
        export_trace(trace, out_dir / f"{_slug(label)}.{suffix}", config.trace_format, memory)


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurec",
        description="Construct, simulate and verify threshold recurrence systems.",
    )
    parser.add_argument("--mode", choices=MODES, default=None, help="what to run (default verify)")
    parser.add_argument(
        "--m",
        action="append",
        type=int,
        default=None,
        help="scale parameter; repeatable (default 6 and 11)",
    )
    parser.add_argument(
        "--d",
        action="append",
        type=int,
        default=None,
        help="bifurcation step; repeatable (default: every valid d)",
    )
    parser.add_argument("--system", choices=FAMILIES, default=None, help="family filter")
    parser.add_argument("--lane", type=int, default=None, help="lane index i for x/v systems")
    parser.add_argument("--steps", type=int, default=None, help="simulate: steps past the init")
    parser.add_argument("--budget", type=int, default=None, help="step budget for cycle search")
    parser.add_argument(
        "--claims", default=None, help="comma-separated claim subset (default: all)"
    )
    parser.add_argument("--out", default=None, help="output directory (default: print JSON)")
    parser.add_argument(
        "--emit-traces",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="simulate: write trace files into --out",
    )
    parser.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default=None, help="trace file format"
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    parser.add_argument(
        "--long",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="extend the scale grid with m=16 and m=21",
    )
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_values) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    config = ExperimentConfig()
    hints = get_type_hints(ExperimentConfig)
    for name in ExperimentConfig.__dataclass_fields__:
        if name in file_values and file_values[name] is not None:
            if not _has_type(file_values[name], hints[name]):
                kind = ExperimentConfig.__dataclass_fields__[name].type
                raise ValueError(f"config key {name!r} must be {kind}, got {file_values[name]!r}")
            setattr(config, name, file_values[name])
    overrides = {
        "mode": args.mode,
        "m": args.m,
        "d": args.d,
        "system": args.system,
        "lane": args.lane,
        "steps": args.steps,
        "budget": args.budget,
        "claims": [c.strip() for c in args.claims.split(",") if c.strip()] if args.claims else None,
        "out": args.out,
        "emit_traces": args.emit_traces,
        "trace_format": args.trace_format,
        "seed": args.seed,
        "long": args.long,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    _validate(config)
    return config


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation (bool is not an int here)."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union such as int | None
        return any(_has_type(value, a) for a in args)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _validate(config: ExperimentConfig) -> None:
    if config.mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    if config.trace_format not in TRACE_FORMATS:
        raise ValueError(f"trace format must be one of {', '.join(TRACE_FORMATS)}")
    if config.claims:
        unknown = sorted(set(config.claims) - set(ALL_CLAIMS))
        if unknown:
            raise ValueError(f"unknown claims: {', '.join(unknown)}")
    if not config.m:
        raise ValueError("need at least one m")
    if any(m < 2 for m in config.m):
        raise ValueError("m must be at least 2")
    if config.emit_traces and config.out is None:
        raise ValueError("--emit-traces needs --out")
    if config.steps is not None and config.steps < 0:
        raise ValueError("steps must be nonnegative")
    if config.budget is not None and config.budget < 1:
        raise ValueError("budget must be positive")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"neurec: {exc}", file=sys.stderr)
        return 2
    try:
        report, code = cmd_run(config)
    except (RhoTooSmall, HypothesisUnmet, NeurecError, ValueError) as exc:
        print(f"neurec: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"neurec: {exc}", file=sys.stderr)
        return 2
    for res in report.claim_results:
        tag = "PASS" if res["passed"] else "FAIL"
        where = " ".join(f"{k}={v}" for k, v in res["params"].items())
        print(f"{tag} {res['claim']} {where}".rstrip(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

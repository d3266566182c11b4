"""Command-line front end.

One batch entry point with six modes:

  construct   build the requested systems and emit their exact descriptions
  simulate    trace one system for a fixed number of steps, off its certificate if cheaper
  cycle       measure (transient, period) for the standard family members
  verify      run the claim registry over a scale grid
  chain       the full period chain claim per scale
  basin       the free-prefix basin claim per scale and step

The verify, chain and basin modes hand their claims to verify.run_claims,
which alone knows each claim's name, grid, cutoff and knobs.  The member modes
(construct, cycle, simulate) share one loop over the selected family members
of every scale, each a verify.member, one row per member; cycle proves it
with Member.prove and simulate traces it with verify.simulated_trace, which
picks its route, both inside one verify.proof_memo, which keeps every member
built.  construct proves and compiles nothing and opens none, so each member
is freed after its row.  This module builds no system:
it handles arguments and output, and rejects a setting the mode does not read.
Every run produces one JSON report (printed to stdout, or written to
--out/report.json together with a summary.csv of every measured orbit).
Reports are deterministic for fixed (m, d, seed, budget) apart from the
wall_clock_s field.  An instance whose predicted work exceeds its cutoff is
skipped, which neither passes nor fails.  Exit status: 0 no check failed, 1
some claim or prediction failed, 2 configuration, scale, I/O or memory trouble
in every mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Sequence, get_args, get_origin, get_type_hints

from . import __version__
from .construction import RecurrenceSystem
from .errors import NeurecError
from .numtheory import WindowParams, window_params
from .verify import (
    ClaimResult,
    Member,
    attempt,
    member,
    proof_memo,
    proof_work,
    run_claims,
    simulated_trace,
    skip_detail,
)

MODES = ("construct", "simulate", "cycle", "verify", "chain", "basin")
FAMILIES = ("x", "v", "y", "w", "z")
TRACE_FORMATS = ("text-bits", "run-length")
DEFAULT_MS = (6, 11)
LONG_MS = (16, 21)
CSV_FIELDS = ("system", "m", "d", "T_measured", "P_measured", "T_predicted", "P_predicted", "match")


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


# ---------------------------------------------------------------------------
# trace and system serialization


# a run-length line is "<bit>×<count>\n" in UTF-8; export_trace writes runs in
# blocks of about _RUN_BLOCK trace bytes, each extended to a whole run
_RUNS = re.compile(rb"\x00+|\x01+")
_RUN_LINES = tuple(f"{bit}×%d\n".encode() for bit in (0, 1))
_RUN_BLOCK = 1 << 14
_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # bit bytes -> "0"/"1"


def export_trace(trace: Sequence[int], path: str | Path, fmt: str, memory: int) -> None:
    """Write a trace as text-bits (wrapped every memory symbols, on one line
    when memory is 0) or run-length, in UTF-8."""
    path = Path(path)
    trace = trace if isinstance(trace, (bytes, bytearray)) else bytes(trace)
    if fmt == "text-bits":
        chars = trace.translate(_CHARS).decode()
        width = memory or len(chars) or 1
        lines = [chars[i : i + width] for i in range(0, len(chars), width)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    if fmt == "run-length":
        with path.open("wb") as fh:
            # one block at a time, so memory stays flat: the lines of a whole
            # trace take several times the trace itself
            start, size = 0, len(trace)
            while start < size:
                end = min(start + _RUN_BLOCK, size)
                if end < size:  # on to the next change of bit, or the end
                    end = trace.find(1 - trace[end - 1], end)
                    end = size if end < 0 else end
                counts = tuple(map(len, _RUNS.findall(trace, start, end)))
                first, other = _RUN_LINES[trace[start]], _RUN_LINES[1 - trace[start]]
                lines = (first + other) * (len(counts) // 2) + first * (len(counts) % 2)
                fh.write(lines % counts)
                start = end
            if not trace:
                fh.write(b"\n")
        return
    raise ValueError(f"unknown trace format {fmt!r}")


def import_trace(path: str | Path) -> list[int]:
    """Read either trace format back; the round trip is exact."""
    text = Path(path).read_text(encoding="utf-8")
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
    bits = re.sub(r"[^01]+", "", body).encode()
    return list(bits.translate(bytes.maketrans(b"01", b"\x00\x01")))


def system_to_json(system: RecurrenceSystem) -> dict:
    """Exact sparse description of one system: its taps as "weights", keyed by offset j."""
    return {
        "format": "neurec-system",
        "version": 1,
        "label": system.label,
        "memory": system.memory,
        "threshold": str(Fraction(system.threshold)),
        "weights": {str(j): str(Fraction(w)) for j, w in system.taps},
        "init": system.init.translate(_CHARS).decode(),
    }


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")


# ---------------------------------------------------------------------------
# the member modes: construct, cycle and simulate


def _families(config: ExperimentConfig) -> tuple[str, ...]:
    """The selected families: --system, else y for simulate and all for the rest."""
    default = ("y",) if config.mode == "simulate" else FAMILIES
    return default if config.system is None else (config.system,)


def _family_members(params: WindowParams, config: ExperimentConfig) -> Iterable[Member]:
    """Each selected family member."""
    for fam in _families(config):
        if fam in ("x", "v"):
            indices = range(params.rho) if config.lane is None else (config.lane,)
        elif fam in ("w", "z"):
            indices = range(params.rho) if config.d is None else config.d
        else:
            indices = (None,)
        for idx in indices:
            yield member(params, fam, idx)


def _measured_row(mem: Member, budget: int | None) -> ClaimResult:
    rep = mem.prove(budget)
    detail = {
        "T_measured": rep.measured_transient,
        "P_measured": rep.measured_period,
        "steps": rep.steps_executed,
    }
    return ClaimResult(mem.system.label, {}, True, detail)


def _member_row(
    config: ExperimentConfig, params: WindowParams, mem: Member
) -> tuple[dict, bytes | bytearray | None]:
    """A member's row: its description, proof or trace row, and simulate's trace."""
    fam, idx, system = mem.family, mem.index, mem.system
    if config.mode == "construct":
        doc = system_to_json(system)
        doc["predicted_transient"], doc["predicted_period"] = mem.predicted
        return doc, None
    if config.mode == "cycle":
        skip = skip_detail(proof_work(params, fam, idx))
        res = attempt(system.label, {}, skip, _measured_row, mem, config.budget)
        row = {
            "system": system.label,
            "m": params.m,
            "d": idx if fam in ("w", "z") else None,
            "lane": idx if fam in ("x", "v") else None,
            "T_predicted": mem.predicted[0],
            "P_predicted": mem.predicted[1],
            "T_measured": None,
            "P_measured": None,
            "match": res.passed,
        }
        return row | ({"note": f"skipped: {skip['skipped']}"} if skip else res.detail), None
    steps = config.steps if config.steps is not None else 2 * system.memory
    trace, route, spent = simulated_trace(mem, steps)
    row = {
        "system": system.label,
        "m": params.m,
        "steps": steps,
        "trace_len": len(trace),
        "ones": trace.count(1),
        "route": route,
        "certificate_steps": spent,
    }
    return row, trace


def _resolved_ms(config: ExperimentConfig) -> list[int]:
    return list(dict.fromkeys(config.m + list(LONG_MS) if config.long else config.m))


def cmd_run(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute one configured run and assemble its report."""
    start = time.perf_counter()
    ms = _resolved_ms(config)
    params_summary = [{"m": m} | window_params(m).summary() for m in ms]
    cycle_reports: list[dict] = []
    claim_results: list[ClaimResult] = []
    traces: list[tuple[str, bytes | bytearray, int]] = []

    if config.mode in ("verify", "chain", "basin"):
        # chain and basin each run the claim of the same name
        claims = config.claims if config.mode == "verify" else [config.mode]
        claim_results = run_claims(ms, claims, config.seed, config.budget, ds=config.d)
    else:
        with nullcontext() if config.mode == "construct" else proof_memo():
            for m in ms:
                params = window_params(m)
                for mem in _family_members(params, config):
                    row, trace = _member_row(config, params, mem)
                    cycle_reports.append(row)
                    if config.emit_traces and trace is not None:
                        traces.append((mem.system.label, trace, mem.system.memory))

    report = RunReport(
        version=__version__,
        mode=config.mode,
        config=asdict(config),
        params_summary=params_summary,
        cycle_reports=cycle_reports,
        claim_results=[asdict(r) for r in claim_results],
        wall_clock_s=round(time.perf_counter() - start, 3),
    )

    failed_claims = any(r.passed is False for r in claim_results)
    failed_cycles = any(row.get("match") is False for row in cycle_reports)
    code = 1 if (failed_claims or failed_cycles) else 0
    _write_outputs(report, traces, config)
    return report, code


def _orbits(record: dict, key: str | None = None) -> Iterable[tuple[str | None, dict]]:
    """(key, orbit) for every measured orbit in a claim detail.

    An orbit is any dict holding T_pred: the detail itself (key None) or a
    record nested in it, in filing order, keyed as filed, lanes as i=<lane>.
    """
    if "T_pred" in record:
        yield key, record
        return
    for name, value in record.items():
        if isinstance(value, dict):
            yield from _orbits(value, f"i={name}" if key == "per_lane" else name)


def _csv_rows(report: RunReport) -> list[dict]:
    """Flatten every measured orbit in the report into the summary table.

    A cycle-mode row is one orbit as it stands.  A claim's own orbit carries
    its verdict in match; the orbits nested in its detail carry none.
    """
    rows = [row for row in report.cycle_reports if "T_predicted" in row]
    for res in report.claim_results:
        for key, orbit in _orbits(res["detail"]):
            rows.append(
                {
                    "system": res["claim"] if key is None else f"{res['claim']}[{key}]",
                    "m": res["params"].get("m"),
                    "d": res["params"].get("d"),
                    "T_measured": orbit["T"],
                    "P_measured": orbit["P"],
                    "T_predicted": orbit["T_pred"],
                    "P_predicted": orbit["P_pred"],
                    "match": res["passed"] if key is None else None,
                }
            )
    return rows


def _write_json(report: RunReport, fh: IO[str]) -> None:
    """Stream the report into fh as indented JSON and a newline.  Its fields
    already hold plain dicts and lists, so they are written as they stand,
    with no deep copy and no whole document in memory."""
    json.dump(vars(report), fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_outputs(report: RunReport, traces, config: ExperimentConfig) -> None:
    if config.out is None:
        _write_json(report, sys.stdout)
        return
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "report.json").open("w") as fh:
        _write_json(report, fh)
    rows = _csv_rows(report)
    with (out_dir / "summary.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, extrasaction="ignore")
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
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="one step cap for every proof and every certificate a claim reads: a search runs "
        "blind only within it, a certificate that cannot be built within it fails, and a "
        "simulation past it fails unrun (default: MEASURE_CUTOFF, 20,000,000)",
    )
    parser.add_argument(
        "--claims",
        type=_claim_list,
        default=None,
        help="comma-separated claim subset (default: all)",
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
    parser.add_argument(
        "--seed", type=int, default=None, help="seed of divisor_rule's random shuffles"
    )
    parser.add_argument(
        "--long",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="extend the scale grid with m=16 and m=21",
    )
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    return parser


def _claim_list(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


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
    for name, spec in ExperimentConfig.__dataclass_fields__.items():
        value = file_values.get(name)
        if value is not None:
            if not _has_type(value, hints[name]):
                raise ValueError(f"config key {name!r} must be {spec.type}, got {value!r}")
            setattr(config, name, value)
        # each flag's dest is the field it overrides
        if getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    # a repeated scale, step or claim runs once, in first-seen order
    config.m = list(dict.fromkeys(config.m))
    if config.d is not None:
        config.d = list(dict.fromkeys(config.d))
    if config.claims is not None:
        config.claims = list(dict.fromkeys(config.claims))
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
    for name, choices in (("mode", MODES), ("trace_format", TRACE_FORMATS), ("system", FAMILIES)):
        if getattr(config, name) not in (None, *choices):
            raise ValueError(f"{name.replace('_', ' ')} must be one of {', '.join(choices)}")
    for name, given in (("m", config.m), ("claim", config.claims), ("d", config.d)):
        if given == []:
            raise ValueError(f"need at least one {name}")
    # the modes that read each setting; the others reject it off its default,
    # which a dataclass keeps as a class attribute
    for names, modes in (
        (("d",), ("construct", "simulate", "cycle", "basin")),
        (("system", "lane"), ("construct", "simulate", "cycle")),
        (("steps", "emit_traces", "trace_format"), ("simulate",)),
        (("budget",), ("cycle", "verify", "chain", "basin")),
        (("claims",), ("verify",)),
    ):
        for name in names:
            if config.mode not in modes and getattr(config, name) != getattr(ExperimentConfig, name):
                raise ValueError(f"--{name.replace('_', '-')} does not apply to --mode {config.mode}")
    if config.mode in ("construct", "simulate", "cycle"):  # x and v read --lane, w and z --d
        families = _families(config)
        for name, readers in (("lane", {"x", "v"}), ("d", {"w", "z"})):
            if getattr(config, name) is not None and not readers.intersection(families):
                raise ValueError(f"--{name} applies to no selected family ({', '.join(families)})")
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
        report, code = cmd_run(_merge_config(args))
    except (NeurecError, ValueError, OSError) as exc:
        print(f"neurec: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("neurec: out of memory; try a smaller --m", file=sys.stderr)
        return 2
    tags = {True: "PASS", False: "FAIL", None: "SKIP"}
    for res in report.claim_results:
        where = " ".join(f"{k}={v}" for k, v in res["params"].items())
        print(f"{tags[res['passed']]} {res['claim']} {where}".rstrip(), file=sys.stderr)
    if report.claim_results:
        n = Counter(res["passed"] for res in report.claim_results)
        print(f"neurec: {n[True]} passed, {n[False]} failed, {n[None]} skipped", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

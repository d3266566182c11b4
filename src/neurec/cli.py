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
built and every orbit searched.  simulate writes each trace file as its
member is traced, and reads the member's Trace a block of at most _WRITE
bytes at a time, never whole, and each byte once where the predicted period
is at most _WRITE: export_trace's periodic check feeds its run-length
encoder the blocks it reads, and the row's count of 1s is export_trace's,
counted on those blocks, or a pass of its own when no file is written.  So
besides the members the memo keeps, with their certificates, a run holds
one block, P carried bytes, a simulated member's trace up to its first
repeat and at most one period's run-length lines, whatever --steps is, up
to MAX_STEPS.  construct proves and compiles nothing and
opens none, so each member is freed after its row.  This module builds no system:
it handles arguments and output, and rejects a setting the mode does not
read, or a --d or --lane off any scale's range before any member runs.
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
from fractions import Fraction
from pathlib import Path
from typing import (
    IO,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
    get_args,
    get_origin,
    get_type_hints,
)

from . import __version__
from .construction import RecurrenceSystem
from .engine import Trace
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
TRACE_FORMATS = {"text-bits": "txt", "run-length": "rle"}  # each format's file suffix
DEFAULT_MS = (6, 11)
LONG_MS = (16, 21)
CSV_FIELDS = ("system", "m", "d", "T_measured", "P_measured", "T_predicted", "P_predicted", "match")
# the most --steps simulate takes: a trace is read a block at a time at about a
# nanosecond a step, so this many steps read for tens of seconds per member and
# make a text-bits file of 10 GB; a run past it would not end in useful time
MAX_STEPS = 10**10


class ExperimentConfig:
    """Fully resolved run configuration (file values overridden by flags).

    Each setting is an annotated class attribute holding its default; an
    instance starts from those, with its own copy of every list."""

    mode: str = "verify"
    m: list[int] = list(DEFAULT_MS)
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

    def __init__(self) -> None:
        for name in ExperimentConfig.__annotations__:
            value = getattr(ExperimentConfig, name)
            setattr(self, name, list(value) if isinstance(value, list) else value)


class RunReport(NamedTuple):
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


# a trace is read and written a block at a time, never whole: the run-length encoder reads
# blocks of _RUN_BLOCK trace bytes, as a block's run-length lines take several times the block,
# and every other read and write takes about _WRITE bytes
_RUNS = re.compile(rb"\x00+|\x01+")
_RUN_LINES = tuple(f"{bit}×%d\n".encode() for bit in (0, 1))
_RUN_BLOCK = 1 << 14
_WRITE = 1 << 16
_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # bit bytes -> "0"/"1"


def _blocks(trace: bytes | Trace, start: int, stop: int, size: int = _WRITE) -> Iterator[bytes]:
    """trace[start:stop], size bytes at a time."""
    return (trace[a : min(a + size, stop)] for a in range(start, stop, size))


def export_trace(
    trace: Sequence[int] | Trace,
    path: str | Path,
    fmt: str,
    memory: int,
    hint: tuple[int, int] | None = None,
) -> int:
    """Write a trace as text-bits (wrapped every memory symbols, on one line
    when memory is 0) or run-length, in UTF-8, a block at a time, and return
    its count of 1s, counted on the blocks it writes from.

    trace is bytes, a Trace or any sequence of 0/1, which is copied to bytes;
    each is read by slicing, one block at a time, so a Trace is never held
    whole.  run-length reads hint, a claimed (T, P) such as a member's
    predicted one, checked on the bytes as they are read (_periodic_cut):
    where it holds, one period's runs are formatted and counted once and
    written for each whole period, so the 1s are the prefix's, reps times
    the period's and the tail's.  Any hint, right, wrong or none, gives the
    same file and count."""
    if not isinstance(trace, (bytes, bytearray, Trace)):
        trace = bytes(trace)
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}")
    size, ones = len(trace), 0
    with Path(path).open("wb") as fh:
        if fmt == "text-bits":
            width = memory or size or 1
            if width <= _WRITE:  # blocks of whole lines
                for block in _blocks(trace, 0, size, _WRITE // width * width):
                    ones += block.count(1)
                    chars = block.translate(_CHARS)
                    lines = (chars[i : i + width] for i in range(0, len(chars), width))
                    fh.write(b"\n".join(lines) + b"\n")
            else:  # a line longer than a block, as memory 0's one line, in blocks
                for line in range(0, size, width):
                    for block in _blocks(trace, line, min(line + width, size)):
                        ones += block.count(1)
                        fh.write(block.translate(_CHARS))
                    fh.write(b"\n")
        else:
            runs = _RunLines(fh.write)
            _periodic_cut(trace, hint, runs)
            runs.flush()
            ones = runs.ones
        if not size:
            fh.write(b"\n")
    return ones


class _RunLines:
    """The run-length lines of the bytes fed, in order, written with write
    _RUN_BLOCK bytes' worth at a time: the last run of each is carried into
    the next, which may extend it, until flush writes it.  ones counts the
    1s fed, summed over the runs of 1s."""

    __slots__ = ("write", "bit", "carry", "ones")

    def __init__(self, write: Callable[[bytes], object]) -> None:
        self.write, self.bit, self.carry, self.ones = write, 0, 0, 0  # the last run: bit, length

    def feed(self, block: bytes, start: int = 0, stop: int | None = None) -> None:
        """Feed block[start:stop], nothing when stop <= start."""
        stop = len(block) if stop is None else min(stop, len(block))
        for a in range(start, stop, _RUN_BLOCK):
            counts = list(map(len, _RUNS.findall(block, a, min(a + _RUN_BLOCK, stop))))
            first = block[a]
            self.ones += sum(counts[1 - first :: 2])
            if self.carry and self.bit == first:
                counts[0] += self.carry
            elif self.carry:
                counts.insert(0, self.carry)
                first = self.bit
            self.bit, self.carry = first ^ (len(counts) - 1) % 2, counts.pop()
            if counts:
                self.write(_lines(first, counts))

    def flush(self) -> None:
        if self.carry:
            self.write(_lines(self.bit, [self.carry]))
            self.carry = 0


def _periodic_cut(trace: bytes | Trace, hint: tuple[int, int] | None, runs: _RunLines) -> int:
    """Feed trace to runs, a block at a time, and return the cut: the first
    change of bit after T if hint's (T, P) holds on trace from T on
    (trace[i] == trace[i - P] for every i in [T + P, len)) and two whole
    periods follow that change, else 0.

    Bytes before the cut are fed as they are read.  From the cut on, one
    period's runs are formatted apart and counted once, and written, when
    the last block has passed the check, for each whole period, then the
    tail's runs.  Each block is checked as it is read against the bytes P
    before it: with P <= _WRITE those are the last P bytes read, carried
    from block to block, so each byte is read once and a run holds one
    block and P carried bytes; a longer period reads them again.  A block
    that breaks the check ends it: the runs from the cut on are then read
    again and fed."""
    size = len(trace)
    t, p = hint or (size, 0)
    if not (0 <= t < size - 2 * p and p > 0):  # nothing to check
        for block in _blocks(trace, 0, size):
            runs.feed(block)
        return 0
    carried, last, cut = p <= _WRITE, size - 2 * p, 0  # the cut lies in (T, last]
    before, lines = b"", []  # the carried bytes; the period's run lines
    period = _RunLines(lines.append)
    for start in range(0, size, _WRITE):
        block = trace[start : start + _WRITE]
        stop, lo = start + len(block), max(start, t + p)  # the block checks times lo..stop-1
        if carried:
            window = before + block  # x(start - len(before) .. stop - 1)
            w = lo - stop + len(window)
            before = window[-p:]
        if lo < stop and (
            window[w:] != window[w - p : -p] if carried else block[lo - start :] != trace[lo - p : stop - p]
        ):
            if cut:
                for rest in _blocks(trace, cut, size):
                    runs.feed(rest)
                return 0
            t = size
        if not cut and t < stop:
            if t >= start:
                other = 1 - block[t - start]
            i = block.find(other, max(t + 1 - start, 0), last + 1 - start)
            if i >= 0:
                cut = start + i
            elif stop > last:
                t = size
        if cut:
            runs.feed(block, 0, cut - start)
            period.feed(block, max(cut - start, 0), cut + p - start)
        else:
            runs.feed(block)
    if not cut:
        return 0
    runs.flush()
    period.flush()
    whole = b"".join(lines)
    reps, copies = (size - cut) // p, max(1, _WRITE // len(whole))
    for i in range(0, reps, copies):
        runs.write(whole * min(copies, reps - i))
    runs.ones += reps * period.ones
    tail = (size - cut) % p
    if tail:
        runs.feed(before[-tail:] if carried else trace[size - tail : size])
    return cut


def _lines(first: int, counts: list[int]) -> bytes:
    """One line per run, of the given lengths, the first of bit first and alternating."""
    one, other = _RUN_LINES[first], _RUN_LINES[1 - first]
    return ((one + other) * (len(counts) // 2) + one * (len(counts) % 2)) % tuple(counts)


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


def _member_row(config: ExperimentConfig, params: WindowParams, mem: Member) -> dict:
    """A member's row: its description, proof or trace row; simulate writes its trace file here."""
    fam, idx, system = mem.family, mem.index, mem.system
    if config.mode == "construct":
        doc = system_to_json(system)
        doc["predicted_transient"], doc["predicted_period"] = mem.predicted
        return doc
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
        return row | ({"note": f"skipped: {skip['skipped']}"} if skip else res.detail)
    steps = config.steps if config.steps is not None else 2 * system.memory
    trace, route, spent = simulated_trace(mem, steps)
    if config.emit_traces:
        path = Path(config.out) / f"{_slug(system.label)}.{TRACE_FORMATS[config.trace_format]}"
        path.parent.mkdir(parents=True, exist_ok=True)
        ones = export_trace(trace, path, config.trace_format, system.memory, mem.predicted)
    else:
        ones = sum(block.count(1) for block in _blocks(trace, 0, len(trace)))
    return {
        "system": system.label,
        "m": params.m,
        "steps": steps,
        "trace_len": len(trace),
        "ones": ones,
        "route": route,
        "certificate_steps": spent,
    }


def _resolved_ms(config: ExperimentConfig) -> list[int]:
    return list(dict.fromkeys(config.m + list(LONG_MS) if config.long else config.m))


def cmd_run(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute one configured run and assemble its report."""
    start = time.perf_counter()
    ms = _resolved_ms(config)
    scales = [window_params(m) for m in ms]
    for params in scales:  # each selected d and lane, before any member runs or file is written
        for d in config.d or ():
            params.check_lane(d, "d")
        if config.lane is not None:
            params.check_lane(config.lane)
    params_summary = [{"m": params.m} | params.summary() for params in scales]
    cycle_reports: list[dict] = []
    claim_results: list[ClaimResult] = []

    if config.mode in ("verify", "chain", "basin"):
        # chain and basin each run the claim of the same name
        claims = config.claims if config.mode == "verify" else [config.mode]
        claim_results = run_claims(ms, claims, config.seed, config.budget, ds=config.d)
    else:
        with nullcontext() if config.mode == "construct" else proof_memo():
            for params in scales:
                for mem in _family_members(params, config):
                    cycle_reports.append(_member_row(config, params, mem))

    report = RunReport(
        version=__version__,
        mode=config.mode,
        config=dict(vars(config)),
        params_summary=params_summary,
        cycle_reports=cycle_reports,
        claim_results=[r._asdict() for r in claim_results],
        wall_clock_s=round(time.perf_counter() - start, 3),
    )

    failed_claims = any(r.passed is False for r in claim_results)
    failed_cycles = any(row.get("match") is False for row in cycle_reports)
    code = 1 if (failed_claims or failed_cycles) else 0
    _write_outputs(report, config)
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
    json.dump(report._asdict(), fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_outputs(report: RunReport, config: ExperimentConfig) -> None:
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
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help=f"simulate: steps past the init, at most {MAX_STEPS:,}",
    )
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
        unknown = set(file_values) - set(ExperimentConfig.__annotations__)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    config = ExperimentConfig()
    hints = get_type_hints(ExperimentConfig)
    for name, annotation in ExperimentConfig.__annotations__.items():
        value = file_values.get(name)
        if value is not None:
            if not _has_type(value, hints[name]):
                raise ValueError(f"config key {name!r} must be {annotation}, got {value!r}")
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
    # the class attribute of ExperimentConfig
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
    if config.steps is not None and not 0 <= config.steps <= MAX_STEPS:
        raise ValueError(f"--steps must be from 0 to {MAX_STEPS:,}")
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
        print("neurec: out of memory; try a smaller --m or --steps", file=sys.stderr)
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

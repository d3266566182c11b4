"""neurec benchmark: time to a certified verdict through the real CLI.

    python3 bench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Every timed pass is one fresh interpreter that runs ``neurec.cli`` as
``__main__``, as ``python -m neurec.cli ...`` does, under ``peak_rss.py``,
which records the pass's own peak RSS; so no cache survives between
passes.  Each pass is gated for correctness against literals pinned in
``expected.json`` (see ``gate.py``).  With ``--trace 0``
the run repeats passes until ``--seconds`` have gone by (at least one) and
reports the end-to-end metrics as medians, with times at a reference core
speed sampled while each child runs (see ``spawn``); with ``--trace 1`` it
makes one kernel probe, one untraced pass and one pass under the layer
wrappers of ``spans.py``, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it name every
metric with its unit, the pass count and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchrun"

RUN_LIMIT_S = 175
DEADLINE = time.monotonic() + RUN_LIMIT_S  # the run starts when this module loads
SETUP_SAMPLES = 15

CLAIMS = (
    "window_param_bounds", "prop1", "prop2", "pos_disjoint", "x_cycle", "v_fixed",
    "sum_bounds", "s1_range", "y_cycle", "y_deshuffle", "w_cycle", "b0_methods_agree",
    "chain_equals_direct", "phases", "z_summary", "chain", "basin",
    "example1_period2", "example1_period3", "divisor_rule",
)


def _workload_args(name: str, seed: int, out: Path) -> list[str]:
    common = ["--seed", str(seed), "--out", str(out)]
    if name == "desk":
        return ["--mode", "verify", "--m", "6", "--m", "11", *common]
    if name == "proofs16":
        return ["--mode", "verify", "--m", "16", "--claims", "y_cycle,z_summary,chain", *common]
    if name == "traces16":
        return [
            "--mode", "simulate", "--m", "16", "--system", "z", "--steps", "1000000",
            "--emit-traces", "--trace-format", "run-length", *common,
        ]
    raise ValueError(name)


WORKLOADS = ("desk", "proofs16", "traces16")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "numtheory.calls": "count",
    "numtheory.self_s": "s",
    "construction.calls": "count",
    "construction.self_s": "s",
    "engine.self_s": "s",
    "engine.compile.calls": "count",
    "engine.compile.self_s": "s",
    "engine.advance.steps": "steps",
    "engine.advance.self_s": "s",
    "engine.advance.msteps_per_s": "Msteps/s",
    "engine.run.steps": "steps",
    "engine.run.self_s": "s",
    "engine.run.msteps_per_s": "Msteps/s",
    "cycles.self_s": "s",
    "cycles.detect.calls": "count",
    "cycles.detect.steps": "steps",
    "cycles.detect.self_s": "s",
    "cycles.detect.steps_per_tp": "steps/step",
    "cycles.verify.calls": "count",
    "cycles.verify.steps": "steps",
    "cycles.verify.self_s": "s",
    "cycles.budget_exceeded": "count",
    "verify.self_s": "s",
    "verify.instances": "count",
    "verify.instances_failed": "count",
    "verify.proofs.total": "count",
    "verify.proofs.distinct": "count",
    "cli.self_s": "s",
    "cli.export.self_s": "s",
    "cli.export.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.spans": "count",
}
PER_LAYER |= {f"verify.claim.{c}.s": "s" for c in CLAIMS}
PER_LAYER |= {
    f"engine.advance.msteps_per_s.{fam}.m{m}": "Msteps/s"
    for m in (6, 11, 16, 21)
    for fam in ("y", "z0", "zlast", "w0")
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env |= {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1"}
    return env


# Core-speed sampling.  On a 2-core Xeon VM whose cores are shared with
# other tenants, a fixed loop swings between about 0.06 and 0.13 s as they
# come and go, on a scale of seconds, so raw pass times spread by 15-30%
# between runs of the same code.  While a child runs, the harness
# (pinned to the same core) times a short reference loop every
# SAMPLE_PERIOD_S and reports the child's time at a fixed reference speed.
REF_ITERS = 5_000
REF_SPEED = 4.0e6  # reference-loop iterations per CPU second, uncontended Xeon core
SAMPLE_PERIOD_S = 0.05


def reference_chunk() -> float:
    """CPU seconds for REF_ITERS steps of a fixed big-int sliding-window loop."""
    word, mask = 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A, (1 << 260) - 1
    start = time.thread_time()
    for _ in range(REF_ITERS):
        s = 3 * (word & 0xF0F0F0F0F0F0F0F0F0F0).bit_count()
        s += (word & 0x0F0F0F0F0F0F0F0F0F0F0F0F).bit_count()
        word = ((word << 1) | (s >= 37)) & mask
    return time.thread_time() - start


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    code: int
    wall: float  # spawn to exit
    ref_s: float  # the same minus the sampler's slices, at REF_SPEED


def spawn(argv: list[str], stdout: Path, stderr: Path) -> Child:
    """Run one child to completion on this process's core, sampling core speed.

    The child is killed if it would outlive the run's time limit.
    """
    speeds = [REF_ITERS / reference_chunk()]
    sampled = 0.0
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_PERIOD_S)[0]:
                if time.monotonic() > DEADLINE:
                    proc.kill()
                chunk = reference_chunk()
                sampled += chunk
                speeds.append(REF_ITERS / chunk)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        code = proc.wait()
        wall = time.perf_counter() - start
    ref_s = (wall - sampled) * statistics.fmean(speeds) / REF_SPEED
    return Child(code, wall, ref_s)


def host_info() -> dict:
    cpu = platform.processor()
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


class Bench:
    """One benchmark run: the workload's passes, gates and tallies."""

    def __init__(self, workload: str, seed: int):
        import neurec.cli

        self.workload = workload
        self.seed = seed
        self.expected = json.loads((HERE / "expected.json").read_text())[workload]
        self.cli = neurec.cli
        self.attempted = 0
        self.failures: list[str] = []
        self.yref = None
        if workload == "traces16":
            self._prepare_trace_reference()

    def _prepare_trace_reference(self) -> None:
        from neurec.construction import y_closed_form
        from neurec.numtheory import window_params

        exp = self.expected
        self.attempted += 1
        params = window_params(exp["m"])
        pinned = [exp["rho"], exp["primes"], exp["beta"]]
        if [params.rho, list(params.primes), list(params.beta_m)] != pinned:
            self.failures.append(f"window_params({exp['m']}) disagrees with the pinned scale")
        length = max(pin["length"] for pin in exp["traces"].values())
        self.yref = gate.y_reference(exp["primes"], exp["beta"], exp["rho"], length)
        self.failures += gate.check_y_reference(self.yref, y_closed_form, params, self.seed)

    def one_pass(self, tag: str, traced: bool = False) -> tuple[Child, float]:
        """Run and gate one pass; return it and its peak RSS in MB (0 if traced)."""
        out = WORK / tag
        rss_path = WORK / f"{tag}.rss"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = _workload_args(self.workload, self.seed, out)
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), "trace", "--out", str(WORK / "spans.json")]
            argv += ["--", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "peak_rss.py"), str(rss_path), "neurec.cli", *cli_args]
        child = spawn(argv, WORK / f"{tag}.stdout", WORK / f"{tag}.stderr")
        rss_mb = int(rss_path.read_text()) / 1024 if rss_path.is_file() else 0.0
        report_path = out / "report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        if self.workload == "traces16":
            n, notes = gate.check_traces(
                report, child.code, out, self.expected, self.yref, self.cli.import_trace
            )
        else:
            n, notes = gate.check_claims(report, child.code, self.expected)
        self.attempted += n
        self.failures += [f"{tag}: {note}" for note in notes]
        return child, rss_mb

    def setup_times(self) -> list[Child]:
        """Fresh interpreters through ``import neurec``, after one warm-up."""
        times = []
        for i in range(SETUP_SAMPLES + 1):
            child = spawn(
                [sys.executable, "-c", "import neurec"], WORK / "setup.stdout", WORK / "setup.stderr"
            )
            if child.code != 0:
                raise RuntimeError(f"import neurec failed: {(WORK / 'setup.stderr').read_text()}")
            if i:
                times.append(child)
        return times


def measure(bench: Bench, seconds: int) -> dict[str, float]:
    setup = bench.setup_times()
    passes: list[Child] = []
    rss: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        child, peak = bench.one_pass(f"pass{len(passes)}")
        passes.append(child)
        rss.append(peak)
    print(f"passes: {len(passes)}  at reference speed (s): {' '.join(f'{p.ref_s:.3f}' for p in passes)}")
    print(f"raw wall (s): {' '.join(f'{p.wall:.3f}' for p in passes)}")
    print(f"setup samples: {len(setup)}  raw median: {statistics.median(c.wall for c in setup):.4f} s")
    return {
        "wall_s": statistics.median(p.ref_s for p in passes),
        "setup_s": statistics.median(c.ref_s for c in setup),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(bench: Bench) -> dict[str, float]:
    probe = spawn(
        [sys.executable, str(HERE / "spans.py"), "probe"], WORK / "probe.stdout", WORK / "probe.stderr"
    )
    if probe.code != 0:
        raise RuntimeError(f"kernel probe failed: {(WORK / 'probe.stderr').read_text()}")
    rates = json.loads((WORK / "probe.stdout").read_text())
    untraced, _ = bench.one_pass("untraced")
    traced, _ = bench.one_pass("traced", traced=True)
    doc = json.loads((WORK / "spans.json").read_text())
    if not Path(doc["package"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"traced run imported neurec from {doc['package']}, not {SRC}")
    metrics = spans.layer_metrics(doc) | rates
    metrics["trace.wall_s"] = traced.ref_s
    metrics["trace.overhead_frac"] = traced.ref_s / untraced.ref_s - 1
    metrics["trace.coverage_frac"] = metrics.pop("trace.self_s") / traced.wall
    print(f"at reference speed (s): untraced {untraced.ref_s:.3f}  traced {traced.ref_s:.3f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="neurec benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neurec" / "__init__.py").is_file():
        print(f"bench: no neurec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children inherit the pin, so the core-speed sampler shares their core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(json.dumps({"host": host_info()}))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    bench = Bench(args.workload, args.seed)
    if args.trace:
        values = measure_traced(bench)
        units = PER_LAYER
    else:
        values = measure(bench, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    failed = len(bench.failures)
    for note in bench.failures[:20]:
        print(f"FAILED {note}")
    print(f"failed_frac: {failed / bench.attempted:.4f} ({failed} of {bench.attempted})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

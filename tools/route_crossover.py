"""Time the two routes of a proof and of a simulated trace, per orbit.

    python3 tools/route_crossover.py [--repeats 15]

measure_cycle proves an orbit of predicted T + P up to verify.DETECT_CUTOFF
by a blind search (detect_cycle) and a larger one on a lane or handoff
certificate; simulated_trace reads a trace off the certificate past the same
cutoff and otherwise simulates it with run.  For each orbit below, this
script forces each route in turn, by setting DETECT_CUTOFF to 10^9 (blind,
or run) and to 0 (certified), and prints the best of --repeats wall times
of Member.prove() and of simulated_trace at the CLI's default steps (twice
the memory).  A certificate that cannot close within those steps falls
back to run, so the simulate table names the route the certified column
took.  Everything runs in this one process, outside run_claims, so no
member, proof or certificate is remembered between calls; members are built
and compiled (Member.cs) before the clock starts.  It uses only the standard library and src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import neurec.verify as verify  # noqa: E402
from neurec import member, window_params  # noqa: E402

ORBITS = (
    (6, "y", None), (6, "z", 0), (6, "z", 1),
    (11, "w", 0), (11, "z", 0), (11, "z", 1),
    (16, "w", 1), (16, "z", 1),
)
CUTOFFS = (10**9, 0)  # every orbit searched blind (or run), then every one certified


def best_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def label(mem) -> str:
    return mem.family + ("" if mem.index is None else f"({mem.index})")


def timed(mem, cutoff: int, call, repeats: int) -> tuple[float, object]:
    """The best time of call(mem) at this DETECT_CUTOFF, and what it returned."""
    saved = verify.DETECT_CUTOFF
    verify.DETECT_CUTOFF = cutoff
    try:
        return best_ms(lambda: call(mem), repeats), call(mem)
    finally:
        verify.DETECT_CUTOFF = saved


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="runs per orbit and route")
    repeats = parser.parse_args(argv).repeats
    members = [(m, member(window_params(m), fam, idx)) for m, fam, idx in ORBITS]
    for _, mem in members:
        mem.cs  # compiled here, once, before the clock starts
    print(f"proofs: Member.prove, best of {repeats}, ms (DETECT_CUTOFF = {verify.DETECT_CUTOFF:,})")
    print(f"{'m':>3} {'orbit':<6} {'T + P':>10} {'blind':>8} {'certified':>10}")
    for m, mem in members:
        (blind, _), (certified, _) = (timed(mem, c, lambda x: x.prove(), repeats) for c in CUTOFFS)
        print(f"{m:>3} {label(mem):<6} {sum(mem.predicted):>10,} {blind:>8.2f} {certified:>10.2f}")
    print(f"\nsimulate: simulated_trace at twice the memory, best of {repeats}, ms")
    print(f"{'m':>3} {'orbit':<6} {'steps':>10} {'run':>8} {'certified':>10}  route taken")
    for m, mem in members:
        steps = 2 * mem.system.memory
        trace = partial(verify.simulated_trace, steps=steps)
        (ran, _), (certified, (_, route, _)) = (timed(mem, c, trace, repeats) for c in CUTOFFS)
        print(f"{m:>3} {label(mem):<6} {steps:>10,} {ran:>8.2f} {certified:>10.2f}  {route}")


if __name__ == "__main__":
    main()

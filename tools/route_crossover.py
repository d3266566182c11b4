"""Time the two routes of a proof and of a simulated trace, per orbit.

    python3 tools/route_crossover.py [--repeats 15]

Member.prove proves an orbit of predicted T + P up to verify.DETECT_CUTOFF
by a blind search (detect_cycle) and a larger one on a lane or handoff
certificate; simulated_trace returns a Trace read off the certificate past
the same cutoff and otherwise off engine.simulate's first-repeat prefix.
For each orbit below, this script forces each route in turn, by setting
DETECT_CUTOFF to 10^9 (blind, or simulated) and to 0 (certified), and
prints the best of --repeats wall times of Member.prove() and of
simulated_trace at the CLI's default steps (twice the memory), its Trace
read in full, as the CLI reads it in blocks, so both columns pay for every
byte.  A certificate that cannot close within those steps falls back to
the simulation, so the simulate table names the route the certified
column took.  A member keeps its proof and certificate, so every repeat proves or
traces a fresh copy (fresh), made before its clock starts on the compiled
systems of the member and of its handoff's parts: a repeat pays for every
search and certificate, and for no build or compile.  Everything runs in
this one process.  It uses only the standard library and src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import neurec.verify as verify  # noqa: E402
from neurec import Member, member, window_params  # noqa: E402

ORBITS = (
    (6, "y", None), (6, "z", 0), (6, "z", 1),
    (11, "w", 0), (11, "z", 0), (11, "z", 1),
    (16, "w", 1), (16, "z", 1),
)
CUTOFFS = (10**9, 0)  # every orbit searched blind (or run), then every one certified


def fresh(mem: Member) -> Member:
    """A copy of mem that keeps no proof or certificate yet, on mem's
    compiled system, handing off (z(d)) to fresh copies of mem's parts."""
    copy = Member(mem.family, mem.index, mem.system, mem.predicted, None)
    copy.cs = mem.cs  # Member.cs is a cached_property: this hands over the compiled form
    if mem.handoff is not None:
        plan = mem.handoff()
        parts = plan._replace(head=fresh(plan.head), tail=fresh(plan.tail))
        copy.handoff = lambda: parts
    return copy


def best_ms(mem: Member, call, repeats: int) -> float:
    """The best of repeats wall times of call on a fresh copy of mem."""
    best = float("inf")
    for _ in range(repeats):
        copy = fresh(mem)
        start = time.perf_counter()
        call(copy)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def label(mem) -> str:
    return mem.family + ("" if mem.index is None else f"({mem.index})")


def read_trace(mem: Member, steps: int) -> tuple[bytes, str, int]:
    """simulated_trace with its Trace read in full."""
    trace, route, spent = verify.simulated_trace(mem, steps)
    return trace[:], route, spent


def timed(mem, cutoff: int, call, repeats: int) -> tuple[float, object]:
    """The best time of call on a fresh copy of mem at this DETECT_CUTOFF,
    and what it returned."""
    saved = verify.DETECT_CUTOFF
    verify.DETECT_CUTOFF = cutoff
    try:
        return best_ms(mem, call, repeats), call(fresh(mem))
    finally:
        verify.DETECT_CUTOFF = saved


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="runs per orbit and route")
    repeats = parser.parse_args(argv).repeats
    # inside one run each scale's y and w(d) are built once and kept, so
    # fresh copies every handoff's parts from them, compiled on first copy
    with verify.proof_memo():
        members = [(m, member(window_params(m), fam, idx)) for m, fam, idx in ORBITS]
        print(f"proofs: Member.prove, best of {repeats}, ms (DETECT_CUTOFF = {verify.DETECT_CUTOFF:,})")
        print(f"{'m':>3} {'orbit':<6} {'T + P':>10} {'blind':>8} {'certified':>10}")
        for m, mem in members:
            (blind, _), (certified, _) = (timed(mem, c, lambda x: x.prove(), repeats) for c in CUTOFFS)
            print(f"{m:>3} {label(mem):<6} {sum(mem.predicted):>10,} {blind:>8.2f} {certified:>10.2f}")
        print(f"\nsimulate: simulated_trace at twice the memory, best of {repeats}, ms")
        print(f"{'m':>3} {'orbit':<6} {'steps':>10} {'run':>8} {'certified':>10}  route taken")
        for m, mem in members:
            steps = 2 * mem.system.memory
            trace = partial(read_trace, steps=steps)
            (ran, _), (certified, (_, route, _)) = (timed(mem, c, trace, repeats) for c in CUTOFFS)
            print(f"{m:>3} {label(mem):<6} {steps:>10,} {ran:>8.2f} {certified:>10.2f}  {route}")


if __name__ == "__main__":
    main()

"""Find the smallest --budget under which the default grid passes.

    python3 tools/least_budget.py

Bisects the least budget b for which run_claims(budget=b), the CLI's
default grid, passes every instance, and prints it.  Every route proves the
same predicted pairs and reads the same certificates, so a grid that passes
at b passes at every larger b, and one bisection between 0 and
MEASURE_CUTOFF, the cap without --budget, finds it.  It uses only the
standard library and src/.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from neurec.verify import MEASURE_CUTOFF, run_claims  # noqa: E402


def passes(budget: int) -> bool:
    return all(res.passed for res in run_claims(budget=budget))


def least_budget() -> int:
    """The least budget at which every instance of the default grid passes."""
    if not passes(MEASURE_CUTOFF):
        raise SystemExit("the default grid does not pass at MEASURE_CUTOFF")
    lo, hi = 0, MEASURE_CUTOFF  # lo fails (a budget is positive), hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


if __name__ == "__main__":
    print(f"least --budget passing every instance of the default grid: {least_budget():,}")

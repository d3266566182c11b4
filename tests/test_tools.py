"""The scripts in tools/ run against today's verify: route_crossover's two
tables and least_budget's bisection, pinned at the number README gives."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_route_crossover_prints_one_row_per_orbit_in_both_tables(capsys):
    tool = load("route_crossover")
    tool.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    proofs, simulate = lines[: lines.index("")], lines[lines.index("") + 1 :]
    for table in (proofs, simulate):
        rows = table[2:]  # a title and a header
        assert len(rows) == len(tool.ORBITS)
        for row, (m, family, index) in zip(rows, tool.ORBITS):
            label = family + ("" if index is None else f"({index})")
            assert row.split()[:2] == [str(m), label]
    assert all(line.split()[-1] in ("simulated", "lanes", "handoff") for line in simulate[2:])


def test_least_budget_is_the_one_readme_gives():
    # README: the default grid passes under --budget 1292 and no less
    passes = load("least_budget").passes
    assert passes(1292) and not passes(1291)

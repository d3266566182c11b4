"""The scripts in tools/ run against today's verify: route_crossover's two
tables, least_budget's bisection, pinned at the number README gives, and
budget_mutants' mutants."""

import ast
import importlib.util
from collections import Counter
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


def test_budget_mutants_change_only_their_function_each_in_one_way():
    tool = load("budget_mutants")
    pins = {
        # the sum check's if (dropped, or its comparison shifted) and its
        # raise's steps; the re-raise of a lane search's overrun, dropped or
        # shifted
        ("src/neurec/cycles.py", "certify_lanes"): {
            "drop if": 1, "shift comparison +1": 1, "shift comparison -1": 1,
            "drop raise": 1, "shift raised steps +1": 2, "shift raised steps -1": 2,
        },
        # a kept search past a later budget: its raise, dropped or shifted
        ("src/neurec/cycles.py", "_kept_search"): {
            "drop raise": 1, "shift raised steps +1": 1, "shift raised steps -1": 1,
        },
        # find_repeat's schedule: its loop up to the limit, shifted
        ("src/neurec/engine.py", "_check_points"): {"shift comparison +1": 1, "shift comparison -1": 1},
    }
    for (path, function), want in pins.items():
        found = tool.mutants(path, [function])
        assert Counter(m.change for m in found) == want, function
        original = ast.parse((TOOLS.parent / path).read_text()).body
        for m in found:
            body = ast.parse(m.source).body
            changed = [a.name for a, b in zip(original, body) if ast.dump(a) != ast.dump(b)]
            assert len(body) == len(original) and changed == [function], m.change

"""Mutation check of the budget paths: does the test suite notice each change?

    python3 tools/budget_mutants.py --work DIR

Each mutant makes one change to one function of TARGETS (certify_lanes,
handoff_certificate and _first_disagreement in cycles, _certificate in
verify, find_repeat in engine): it drops a raise, drops an if whose test
reads a budget (a name in BUDGET_NAMES), shifts the right side of such a
comparison by +1 or -1, or shifts the steps of a raised BudgetExceeded by
+1 or -1.  The script copies src/ and tests/ into DIR (which must not
exist), writes each mutant in turn over its file there and runs pytest -x
on TESTS.  A mutant is killed when pytest fails, or when it runs past four
times the unmutated run plus a minute (a search that no longer stops) and
is stopped.  It prints one line per mutant and a count of the killed, and
exits 1 when any survives.  Mutants are written with
ast.unparse, so comments and layout of the mutated file are lost and its
semantics kept.  It uses only the standard library and pytest, one test
process at a time.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
BUDGET_NAMES = frozenset({"budget", "cap", "limit"})
TARGETS = (
    ("src/neurec/cycles.py", ("certify_lanes", "handoff_certificate", "_first_disagreement")),
    ("src/neurec/verify.py", ("_certificate",)),
    ("src/neurec/engine.py", ("find_repeat",)),
)
TESTS = ("tests/test_cycles.py", "tests/test_verify.py", "tests/test_engine.py")


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    function: str
    line: int
    change: str
    source: str  # the whole mutated module


def _reads_budget(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id in BUDGET_NAMES for n in ast.walk(node))


def _raises_budget(node: ast.Raise) -> bool:
    call = node.exc
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "BudgetExceeded"


def _shifted(node: ast.expr, delta: int) -> ast.expr:
    op = ast.Add() if delta > 0 else ast.Sub()
    return ast.BinOp(node, op, ast.Constant(abs(delta)))


def _changes(func: ast.AST) -> Iterator[tuple[int, str]]:
    """(index in ast.walk order, change) for every mutation site of func."""
    guarded = set()  # raises alone in a dropped if, whose drop is the same mutant
    for k, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Raise):
            if id(node) not in guarded:
                yield k, "drop raise"
            if _raises_budget(node) and node.exc.args:
                yield from ((k, f"shift raised steps {d:+d}") for d in (1, -1))
        elif isinstance(node, ast.If) and _reads_budget(node.test):
            yield k, "drop if"
            if len(node.body) == 1 and not node.orelse:
                guarded.add(id(node.body[0]))
        elif isinstance(node, ast.Compare) and _reads_budget(node):
            yield from ((k, f"shift comparison {d:+d}") for d in (1, -1))


def _apply(node: ast.AST, change: str, tree: ast.Module) -> None:
    """Make change at node, in place in tree."""
    if change.startswith("shift"):
        delta = int(change.split()[-1])
        if isinstance(node, ast.Compare):
            node.comparators[-1] = _shifted(node.comparators[-1], delta)
        else:
            node.exc.args[0] = _shifted(node.exc.args[0], delta)
        return
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and node in block:
                i = block.index(node)
                # a dropped if keeps its else branch; an emptied block gets a pass
                block[i : i + 1] = getattr(node, "orelse", []) if change == "drop if" else []
                if not block and field == "body":
                    block.append(ast.Pass())
                return
    raise ValueError(f"no block holds the node of {change!r}")


def mutants(path: str, functions: Sequence[str]) -> list[Mutant]:
    """Every mutant of the named top-level functions of path, distinct in source."""
    text = (ROOT / path).read_text()
    original = ast.unparse(ast.parse(text))
    seen, out = {original}, []
    for name in functions:
        sites = [f for f in ast.parse(text).body if getattr(f, "name", None) == name]
        if not sites:
            raise SystemExit(f"{path} has no function {name}")
        for k, change in _changes(sites[0]):
            tree = ast.parse(text)
            func = next(f for f in tree.body if getattr(f, "name", None) == name)
            node = list(ast.walk(func))[k]
            _apply(node, change, tree)
            source = ast.unparse(ast.fix_missing_locations(tree))
            if source not in seen:
                seen.add(source)
                out.append(Mutant(path, name, node.lineno, change, source))
    return out


def _pytest(work: Path, timeout: float | None = None) -> int | None:
    """pytest's exit code, or None when it runs past timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        return subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True, help="a scratch directory to create")
    args = parser.parse_args(argv)
    found = [m for path, functions in TARGETS for m in mutants(path, functions)]
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, args.work / sub, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", args.work)
    start = time.perf_counter()
    if _pytest(args.work) != 0:
        raise SystemExit("the tests fail on the unmutated copy")
    timeout = 4 * (time.perf_counter() - start) + 60
    survived = 0
    for m in found:
        target = args.work / m.path
        original = target.read_text()
        target.write_text(m.source)
        try:
            code = _pytest(args.work, timeout)
        finally:
            target.write_text(original)
        survived += code == 0
        verdict = "SURVIVED" if code == 0 else "killed" if code is not None else "killed (timeout)"
        print(f"{verdict} {m.path}:{m.line} {m.function}: {m.change}", flush=True)
    wall = time.perf_counter() - start
    print(f"{len(found)} mutants, {len(found) - survived} killed, {survived} survived, {wall:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""The README's Python examples run as written, its claim table is complete,
every name a module exports exists, and its results table is the
predicted period chain."""

import importlib
import re
from math import log10
from pathlib import Path

import pytest

from neurec import ALL_CLAIMS, predicted_cycle, window_params

MODULES = ("numtheory", "construction", "engine", "cycles", "verify", "errors", "cli")

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (first line number, source) of each ```python block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    offset, source = BLOCKS[block]
    # padding keeps traceback line numbers equal to README.md's
    exec(compile("\n" * offset + source, str(README), "exec"), {})


UNITS = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen fourteen "
    "fifteen sixteen seventeen eighteen nineteen"
).split()
TENS = "twenty thirty forty fifty sixty seventy eighty ninety".split()


def number_word(n):
    if n < 20:
        return UNITS[n]
    tens, units = divmod(n, 10)
    return TENS[tens - 2] + (f"-{UNITS[units]}" if units else "")


def test_claim_registry_table_names_every_claim():
    section = TEXT.split("## Claim registry", 1)[1].split("\n## ", 1)[0]
    count = re.search(r"^([\w-]+) claims, each checkable per scale", section, flags=re.M)
    assert count and count.group(1).lower() == number_word(len(ALL_CLAIMS))
    rows = re.findall(r"^\| (`.*?) \|", section, flags=re.M)
    named = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert sorted(named) == sorted(ALL_CLAIMS)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry would be skipped silently by anything that
    # walks the exports, such as a tracer that wraps them
    module = importlib.import_module(f"neurec.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_results_table_equals_the_predicted_chain():
    section = TEXT.split("## Results", 1)[1].split("\n## ", 1)[0]
    assert "`neurec --mode chain --long`" in section
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (.+) \|$", section, flags=re.M)
    assert [int(row[0]) for row in rows] == [6, 11, 16, 21]
    for m, rho, h, y_period, pairs in rows:
        params = window_params(int(m))
        assert (int(rho), int(h)) == (params.rho, params.h), m
        assert (0, int(y_period)) == predicted_cycle(params, "y"), m
        chain = [predicted_cycle(params, "z", d) for d in range(params.rho)]
        assert [tuple(map(int, pair)) for pair in re.findall(r"\((\d+), (\d+)\)", pairs)] == chain, m
        assert re.sub(r"\(\d+, \d+\)(, )?", "", pairs) == "", m


def test_results_rows_past_m21_equal_the_predicted_chain():
    # rho, h, and log10 of y's period and of z(rho - 1)'s transient, each
    # row naming the command that certifies it and its wall time
    section = TEXT.split("## Results", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(
        r"^\| (\d+) \| (\d+) \| (\d+) \| ([\d.]+) \| ([\d.]+) \| `([^`]+)` \| [\d.]+(?:–[\d.]+)? s \|$",
        section,
        flags=re.M,
    )
    assert [int(row[0]) for row in rows] == [50, 100, 200]
    for m, rho, h, log_period, log_transient, command in rows:
        params = window_params(int(m))
        assert (int(rho), int(h)) == (params.rho, params.h), m
        assert log_period == f"{log10(predicted_cycle(params, 'y')[1]):.2f}", m
        assert log_transient == f"{log10(predicted_cycle(params, 'z', params.rho - 1)[0]):.2f}", m
        assert command == f"neurec --mode chain --m {m}", m

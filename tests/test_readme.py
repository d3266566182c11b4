"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

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

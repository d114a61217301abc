"""The README's Python examples run and print what their comments say.

Each fenced ``python`` block is executed as it stands; every ``print``
line that ends in a ``# ...`` comment must print that comment's text.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block):
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

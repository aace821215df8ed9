"""README.md's Python blocks run as written and import exactly the public names."""

import ast
import re
from pathlib import Path

import pytest

import dyncut

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_blocks_import_every_public_name():
    imported = {
        alias.name
        for code in BLOCKS
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "dyncut"
        for alias in node.names
    }
    assert imported == set(dyncut.__all__)

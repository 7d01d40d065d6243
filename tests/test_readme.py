"""README's library examples run.

Every ``from mimufusion... import ...`` statement in README's python code
blocks runs here, so a renamed or deleted public name fails the tests
instead of leaving the README stale. The blocks also run whole, on a
short simulated pair in the ``out/sim`` directory they read from, so a
stale call signature fails too.
"""
import ast
import re
from pathlib import Path

import pytest

from mimufusion.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
IMPORTS = [ast.unparse(node) for block in BLOCKS
           for node in ast.walk(ast.parse(block))
           if isinstance(node, ast.ImportFrom)
           and (node.module or "").split(".")[0] == "mimufusion"]


def test_readme_has_library_imports():
    assert IMPORTS


@pytest.mark.parametrize("statement", IMPORTS)
def test_readme_import_runs(statement):
    exec(statement, {})


def test_readme_library_blocks_run(tmp_path, monkeypatch):
    assert main(["simulate", "--config", str(ROOT / "configs" / "sim_pair.yaml"),
                 "--out", str(tmp_path / "out" / "sim"), "--duration", "5"]) == 0
    monkeypatch.chdir(tmp_path)
    for block in BLOCKS:
        exec(block, {})

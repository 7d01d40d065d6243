"""README's library examples import only names that exist.

Every ``from mimufusion... import ...`` statement in README's python code
blocks runs here, so a renamed or deleted public name fails the tests
instead of leaving the README stale.
"""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
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

"""Every name a library module imports is referenced in that module.

The check walks the syntax tree with the standard library's ``ast``: a
name bound by ``import`` or ``from ... import`` counts as used when it
appears as a name anywhere in the module (attribute bases and
annotations included). ``__init__.py`` re-exports its imports and
``from __future__`` imports bind no name, so both are skipped.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mimufusion"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names that ``source`` imports and never references, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {"cli.py", "harness.py", "vimu.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_dead_names_only():
    source = """\
from __future__ import annotations
import os
import numpy as np
import xml.dom
from .geometry import geodesic_angle, rotation_from_quat
from .types import Extrinsic as Ext

def f(x: Ext) -> float:
    return geodesic_angle(np.eye(3), x.rotation())
"""
    assert unused_imports(source) == ["os", "rotation_from_quat", "xml"]

"""Every name a library or test module imports is referenced in that
module, every parameter of a library function is named in its body, and every
module-level function or class of the library has a caller.

The checks walk the syntax tree with the standard library's ``ast``: a
name bound by ``import`` or ``from ... import`` counts as used when it
appears as a name anywhere in the module (attribute bases and
annotations included). ``__init__.py`` re-exports its imports and
``from __future__`` imports bind no name, so both are skipped. A
parameter counts as read when it appears as a name anywhere in its
function's body, nested functions included; ``self`` and ``cls`` are
skipped. A module-level function or class has a caller when its name
appears as a name or an attribute anywhere in the library outside its
own definition, or when README mentions it as a word. An import names
nothing, and neither does an entry of ``__all__``, so a name that the
package exports and nothing calls is flagged too. Methods are out of
scope, because names such as ``from_dict`` are shared between classes
and a reference does not say which class it reaches.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mimufusion"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


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


def unread_parameters(source: str) -> list:
    """``function.parameter`` for every parameter that ``source``'s
    functions never name in their bodies, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            named = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            found.extend(f"{node.name}.{p}" for p in params
                         if p not in named and p not in ("self", "cls"))
    return sorted(found)


def _references(node) -> Counter:
    """How often each name appears as a name or an attribute in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_definitions(sources: dict, readme: str) -> list:
    """``module.name`` for every module-level function or class in
    ``sources`` (module name -> source) that no code in ``sources``
    names outside its own definition and that ``readme`` does not
    mention, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and everywhere[node.name] == _references(node)[node.name]
                    and not re.search(rf"\b{re.escape(node.name)}\b", readme)):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_modules_found():
    assert {"cli.py", "harness.py", "vimu.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_function_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_library_definition_has_a_caller():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_definitions(sources, (ROOT / "README.md").read_text()) == []


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


def test_parameter_check_flags_unread_parameters_only():
    source = """\
class C:
    def m(self, x, unused):
        return x

    @classmethod
    def make(cls, *args, **kwargs):
        return args

def f(a, b, /, c, *, d=1):
    def inner():
        return b + c
    return a, inner()
"""
    assert unread_parameters(source) == ["f.d", "m.unused", "make.kwargs"]


def test_caller_check_flags_uncalled_definitions_only():
    sources = {"a": """\
def used():
    pass

def exported():
    pass

def documented():
    pass

def recursive(n):
    return recursive(n - 1)

class Orphan:
    def make(self):
        return Orphan()

def _helper():
    pass
""", "b": """\
from . import a
from .a import used

def caller():
    return used(), a._helper()
""", "__init__": """from .a import exported
from .b import caller

__all__ = ["caller", "exported"]
"""}
    assert uncalled_definitions(sources, "Call `documented()` first.") == [
        "a.Orphan", "a.exported", "a.recursive", "b.caller"]

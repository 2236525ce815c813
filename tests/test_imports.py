"""Every name a source module imports is used there or re-exported, every
name it exports exists, and every private definition is named elsewhere.

No linter ships with the test dependencies, so this reads each module's
syntax tree: an imported name counts as used when it appears as a name
anywhere in the module (annotations included) or is listed in __all__. A
stale __all__ entry would otherwise fail only at a star import. A private
function, class or method (a _name that is not a dunder) counts as used when
some place in src/gaugekit outside its own definition names it: a name, an
attribute or an import.
"""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugekit"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from typing import Dict, List, Optional as Opt\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Dict[str, int]) -> None:\n"
        "    return json.decoder\n"
    )
    assert unused_imports(source) == ["List (line 4)", "Opt (line 4)", "os (line 2)", "osp (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unresolved_exports(module) -> list:
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_the_export_check_flags_only_missing_names():
    module = types.ModuleType("probe")
    exec("def kept(): pass\n__all__ = ['kept', 'deleted']\n", module.__dict__)
    assert unresolved_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_exported_name_resolves(path):
    name = "gaugekit" if path.stem == "__init__" else f"gaugekit.{path.stem}"
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert unresolved_exports(module) == []


def _mentions(tree: ast.AST) -> Counter:
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def unreferenced_private_names(sources: dict) -> list:
    """The private definitions in sources (module name -> text) that no place
    outside their own definition names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.endswith("__") and total[name] == _mentions(node)[name]:
                dead.append(f"{module}.{name} (line {node.lineno})")
    return sorted(dead)


def test_the_dead_code_check_flags_only_unnamed_private_definitions():
    sources = {
        "a": (
            "def _called(): pass\n"
            "def _dead(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Box:\n"
            "    def __init__(self): self._read()\n"
            "    def _read(self): pass\n"
            "    def _unread(self): pass\n"
            "    @property\n"
            "    def _size(self): return 0\n"
        ),
        "b": "from .a import _called, _Box\ndef f(box): return _called(), box._size\n",
    }
    assert unreferenced_private_names(sources) == ["a._dead (line 2)", "a._recursive (line 3)", "a._unread (line 7)"]


def test_every_private_definition_is_named_elsewhere():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []

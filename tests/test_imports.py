"""Every name a source module imports is used there or re-exported, every
name it exports exists, and every private definition is named elsewhere.

No linter ships with the test dependencies, so this reads each module's
syntax tree: an imported name counts as used when it appears as a name
anywhere in the module (annotations included) or is listed in __all__. A
stale __all__ entry would otherwise fail only at a star import. A private
function, class or method (a _name that is not a dunder) counts as used when
some place in src/gaugekit outside its own definition names it: a name, an
attribute or an import. A public function or method outside every __all__
counts as used the same way, or when PUBLIC_API_KEPT lists it.
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


def _unreferenced(sources: dict, flagged) -> list:
    """The definitions in sources (module name -> text) that flagged(node)
    selects and that no place outside their own definition names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if flagged(module, node) and total[node.name] == _mentions(node)[node.name]:
                dead.append(f"{module}.{node.name} (line {node.lineno})")
    return sorted(dead)


def unreferenced_private_names(sources: dict) -> list:
    """The private definitions in sources (module name -> text) that no place
    outside their own definition names."""
    return _unreferenced(sources, lambda module, node: node.name.startswith("_") and not node.name.endswith("__"))


def unreferenced_public_names(sources: dict, allowed=frozenset()) -> list:
    """The public functions and methods in sources that no module lists in
    its __all__, that no place outside their own definition names, and whose
    module.name allowed does not list."""
    exported = set()
    for text in sources.values():
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))

    def flagged(module, node):
        public = not isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        return public and node.name not in exported and f"{module}.{node.name}" not in allowed

    return _unreferenced(sources, flagged)


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


def test_the_dead_code_check_flags_only_unnamed_public_definitions_outside_all():
    sources = {
        "a": (
            "__all__ = ['api']\n"
            "def api(): pass\n"
            "def helper(): pass\n"
            "def called(): pass\n"
            "class Box:\n"
            "    def read(self): pass\n"
            "    def unread(self): pass\n"
            "    def kept(self): pass\n"
        ),
        "b": "from .a import called\ndef f(box): return called(), box.read()\n__all__ = ['f']\n",
    }
    assert unreferenced_public_names(sources, {"a.kept"}) == ["a.helper (line 3)", "a.unread (line 7)"]


# Public methods and functions that no module exports in __all__ and nothing in
# src/gaugekit names, kept as public API all the same: "module.name" -> why it
# stays. Other test-only queries go to tests/reference.py instead.
PUBLIC_API_KEPT = {
    # <psi|op|psi> of a gate or a diagonal over the dense state: the register's
    # own reading of an operator, which the dense report sweep and the gate
    # tests take; the report itself reads its terms on the support
    "register.expectation": "the dense expectation of one operator",
}


def test_every_public_definition_outside_all_is_named_elsewhere():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_names(sources, PUBLIC_API_KEPT) == []
    # an entry whose definition is gone, or is named again, is stale
    assert sorted(name.split(" ")[0] for name in unreferenced_public_names(sources)) == sorted(PUBLIC_API_KEPT)

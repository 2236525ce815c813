"""No function in the source rebinds a module-level name.

A module variable that a function rebinds through a `global` statement is
one object shared by every thread and every caller in the process: two
threads measuring at once would overwrite each other's state. State a
call needs lives on an object the caller passes, such as the register it
measures. This reads each module's syntax tree, so a new `global` is found without being
listed anywhere.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugekit"


def global_statements(source: str) -> list:
    """(line, names) of every global statement in the source."""
    return sorted((node.lineno, tuple(node.names)) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global))


def test_the_scan_finds_every_global_statement():
    source = (
        "import threading\n"
        "_buffer = None\n"
        "_local = threading.local()\n"
        "def grow(size):\n"
        "    global _buffer\n"
        "    _local.buffer = size\n"
        "    return _buffer\n"
        "class Pool:\n"
        "    def take(self):\n"
        "        def inner():\n"
        "            global _buffer, _count\n"
    )
    assert global_statements(source) == [(5, ("_buffer",)), (11, ("_buffer", "_count"))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_rebinds_a_global(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []

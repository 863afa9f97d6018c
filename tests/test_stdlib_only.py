"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "provwrap"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    outside = [
        f"{module.name}: {name}"
        for module in modules
        for name in _absolute_imports(ast.parse(module.read_bytes(), filename=str(module)))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []

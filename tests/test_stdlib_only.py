"""The runtime is pure standard-library Python: every import in the package
is relative, from the package itself, or from the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liecochain"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for name in _imported_modules(ast.parse(path.read_text(), filename=str(path))):
            top = name.split(".")[0]
            if top != "liecochain" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}: {name}")
    assert not outside, outside

"""Only `scalar_field` knows how a ScalarExpr is stored: no other module of
the package reads a `.num` or `.den` attribute."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liecochain"


def test_scalar_representation_stays_in_scalar_field():
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "scalar_field.py"]
    assert files
    readers = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not readers, readers

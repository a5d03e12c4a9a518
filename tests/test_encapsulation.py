"""Only `scalar_field` knows how a ScalarExpr and its polynomials are
stored: no other module of the package reads a `.num` or `.den` attribute,
or a private name of `scalar_field` but the printer helpers `dsl` shares."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liecochain"
OTHERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "scalar_field.py"]


def test_scalar_representation_stays_in_scalar_field():
    assert OTHERS
    readers = []
    for path in OTHERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not readers, readers


# the two printer helpers that `dsl` shares with `scalar_field`
SHARED = {"_signed_sum", "_scaled"}


def test_scalar_field_privates_stay_in_scalar_field():
    """No other module reads a private name of `scalar_field`, through a
    module alias or a `from` import, but the shared printer helpers."""
    readers = []
    for path in OTHERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if a.name == "scalar_field":
                        aliases.add(a.asname or a.name)
                    elif (node.module or "").endswith("scalar_field") and \
                            a.name.startswith("_") and a.name not in SHARED:
                        readers.append(f"{path.name}:{node.lineno}: import {a.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")
                    and node.attr not in SHARED):
                readers.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not readers, readers

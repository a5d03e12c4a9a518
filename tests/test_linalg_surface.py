"""`linalg` is one exact elimination surface on sparse integer rows: its
public names are pinned here, so that a second matrix surface (a dense
Fraction product, rref or inverse) can only come back as a deliberate
change to this list."""

import ast
from pathlib import Path

from liecochain import linalg

PUBLIC = {
    "Echelon", "SingularMatrix", "rank", "product_rank", "kernel", "nullspace", "matvec",
    "AltTensor", "RATIONALS",
}


def test_linalg_defines_exactly_the_pinned_public_names():
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert {name for name in defined if not name.startswith("_")} == PUBLIC

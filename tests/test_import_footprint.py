"""Importing the command-line front end loads the package and its seven
modules, and nothing else of the package: a new module is a deliberate
change to this list."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = {
    "liecochain", "liecochain.action_analysis", "liecochain.chart_calculus",
    "liecochain.cli", "liecochain.dsl", "liecochain.lie_cohomology",
    "liecochain.linalg", "liecochain.scalar_field",
}


def test_cli_import_loads_exactly_the_package_modules():
    code = ("import json, sys; import liecochain.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'liecochain' or m.startswith('liecochain.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert set(json.loads(proc.stdout)) == MODULES

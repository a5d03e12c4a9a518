"""Importing the command-line front end loads the package and its seven
modules, and nothing else of the package: a new module is a deliberate
change to this list."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def test_cli_import_adds_no_code_introspection_modules():
    """`dataclasses` and what it pulls in (`inspect`, `ast`, `dis`,
    `tokenize`) cost every command their import; the front end needs none.
    Only what the import adds counts, not what `site` loaded before it."""
    code = ("import json, sys; before = set(sys.modules); import liecochain.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    added = set(json.loads(proc.stdout))
    assert added >= MODULES
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_import_probe_compares_a_checkout_with_itself(tmp_path):
    """`tools/import_probe.py` times the probe on both sides of each pair and
    refuses a directory with no sources."""
    tool = [sys.executable, str(ROOT / "tools" / "import_probe.py"), "--pairs", "1"]
    proc = subprocess.run(tool + ["--parent", str(ROOT), "--change", str(ROOT)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("import liecochain.cli, 1 alternating pairs, bytecode ")
    assert lines[1].startswith("parent  median ") and lines[2].startswith("change  median ")
    assert lines[3].startswith("change faster in ") and " of 1 pairs; median change " in lines[3]
    proc = subprocess.run(tool + ["--parent", str(tmp_path), "--change", str(ROOT)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "no liecochain sources" in proc.stderr

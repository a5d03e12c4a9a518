"""Byte identity as a standing check: `tools/output_digest.py` hashes every
benchmark output (every `cli_workspaces` command as JSON and as text, every
`chart_swell` and `ce_spectrum` result, every rendered workspace, seeds
0-4).  A change that alters any output byte changes this pin; one that
means to must say so and pin the new digest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("1180 outputs\n"
          "sha256 5aee628b15065d294099700b9520db4792183fae92fecd1cae63f4837239e1a2\n")


def test_output_digest_is_pinned():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                          capture_output=True, text=True, timeout=300, check=True,
                          env=dict(os.environ, PYTHONHASHSEED="7"))
    assert proc.stdout == PINNED

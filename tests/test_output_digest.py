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
          "sha256 73287be792a45b80a74d592f2e516ad1654fa0aed80930676eb721c98c6b315c\n")


def test_output_digest_is_pinned():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                          capture_output=True, text=True, timeout=300, check=True,
                          env=dict(os.environ, PYTHONHASHSEED="7"))
    assert proc.stdout == PINNED

"""`tools/job_probe.py` times each job of a benchmark workload in both
checkouts of a pair, at the reference speed of `bench/calibrate.py`, and
prints per-job medians and wins, and the sum's quartiles and median
per-pair ratio."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = [sys.executable, str(ROOT / "tools" / "job_probe.py"), "--workload", "chart_swell",
        "--seed", "12", "--pairs", "1", "--seconds", "0"]


def test_job_probe_compares_a_checkout_with_itself(tmp_path):
    proc = subprocess.run(TOOL + ["--parent", str(ROOT), "--change", str(ROOT)],
                          capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines[0] == ("chart_swell seed 12, 1 alternating pairs, "
                        "fastest round of each job per process, at the reference speed")
    assert lines[1].split() == ["parent", "ms", "change", "ms", "faster", "job"]
    rows = [line.split(None, 5) for line in lines[2:-4]]
    names = [row[5] for row in rows]
    assert {"power 20", "power 30"} <= set(names) and names[-1] == "sum"
    for parent, change, wins, of, pairs, _ in rows:
        assert float(parent) > 0 and float(change) > 0
        assert wins in ("0", "1") and (of, pairs) == ("of", "1")
    # the sum's quartiles on each side, and the median per-pair ratio
    assert lines[-4].split() == ["sum", "q1", "ms", "median", "ms", "q3", "ms"]
    total = {"parent": float(rows[-1][0]), "change": float(rows[-1][1])}
    for line, side in zip(lines[-3:-1], ("parent", "change")):
        label, *qs = line.split()
        assert label == side and [float(q) for q in qs] == [total[side]] * 3
    label, ratio = lines[-1].rsplit(": ", 1)
    assert label == "median per-pair ratio, change / parent"
    assert abs(float(ratio) - total["change"] / total["parent"]) < 1e-3
    proc = subprocess.run(TOOL + ["--parent", str(tmp_path), "--change", str(ROOT)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "no liecochain sources" in proc.stderr

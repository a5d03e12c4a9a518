"""`tools/job_probe.py` times each job of a benchmark workload in both
checkouts of a pair, at the reference speed of `bench/calibrate.py`, and
prints per-job medians and wins, and the sum's quartiles and median
per-pair ratio.  Both probes quartile by the rule of `tools/bench_record.py`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = str(ROOT / "tools")
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


def test_the_probes_quartile_by_the_records_rule():
    """`job_probe.quartiles` and `import_probe.summary` give the quartiles of
    `bench_record.summary`: statistics.quantiles' default exclusive method,
    which puts those of 1, 2, 3, 4 at 1.25 and 3.75 (the inclusive method
    puts them at 1.75 and 3.25)."""
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import bench_record, import_probe, job_probe; "
             "runs = [{'metrics': {'t': t}} for t in (0.004, 0.001, 0.003, 0.002)]; "
             "row = bench_record.summary(runs, {'t': 's'})['t']; "
             "print(json.dumps([job_probe.quartiles([4, 1, 3, 2]), job_probe.quartiles([7]), "
             "import_probe.summary([0.004, 0.001, 0.003, 0.002]), "
             "[row[k] for k in ('q1', 'median', 'q3')]]))")
    proc = subprocess.run([sys.executable, "-c", probe, TOOLS], capture_output=True, text=True,
                          check=True, timeout=60, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    job, single, imports, record = json.loads(proc.stdout)
    assert job == [1.25, 2.5, 3.75] and single == [7, 7, 7]
    assert [round(x, 9) for x in imports] == [2.5, 1.25, 3.75]   # ms: median, q1, q3
    assert [round(1000 * x, 9) for x in record] == [1.25, 2.5, 3.75]

"""Compare the start-up import of two source checkouts.

    python3 tools/import_probe.py --parent ../parent --change . --pairs 30

Runs the import probe of `bench/run.py`'s `setup_s` (the time to import
liecochain.cli in a fresh interpreter) in the two checkouts, one pair at a
time and alternating which side runs first, after one untimed import on each
side.  It prints each side's median and quartiles (by
`bench_record.quartiles`, as in a BENCH record) and in how many pairs the
change was faster.  Set PYTHONDONTWRITEBYTECODE=1 to time the import with
compilation, as every run on a host that writes no bytecode pays it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from bench_record import quartiles  # noqa: E402  (the records' quartile rule)
from run import IMPORT_PROBE  # noqa: E402  (the benchmark's own probe)


def probe(root):
    """Seconds to import liecochain.cli from `root`/src in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def summary(values):
    """(median, lower quartile, upper quartile) in milliseconds."""
    ms = [1000 * v for v in values]
    q1, _, q3 = quartiles(ms)
    return statistics.median(ms), q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the checkout to compare against")
    parser.add_argument("--change", required=True, help="the checkout under test")
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in sides.items():
        if not os.path.isfile(os.path.join(root, "src", "liecochain", "cli.py")):
            parser.error(f"--{side}: no liecochain sources under {root}/src")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    times = {side: [] for side in sides}
    for root in sides.values():
        probe(root)
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            times[side].append(probe(sides[side]))

    bytecode = "not written" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "written"
    print(f"import liecochain.cli, {args.pairs} alternating pairs, bytecode {bytecode}")
    for side, values in times.items():
        med, q1, q3 = summary(values)
        print(f"{side:6}  median {med:7.2f} ms  quartiles {q1:7.2f} - {q3:7.2f} ms")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    gap = summary(times["change"])[0] - summary(times["parent"])[0]
    print(f"change faster in {wins} of {args.pairs} pairs; median change {gap:+.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())

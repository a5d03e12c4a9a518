"""Compare the per-job times of one benchmark workload in two source checkouts.

    python3 tools/job_probe.py --parent ../parent --change . \\
        --workload chart_swell --seed 12 --pairs 10

Each side of a pair is a fresh interpreter that builds the workload's jobs
with `bench/` of the checkout that holds this file (read only: no bytecode
is written) and the side's `src/`, then runs whole rounds of the job list
with `bench/run.py`'s own loop for --seconds, at least its MIN_ROUNDS
rounds, keeping each job's fastest round.  Like `bench/run.py`, it reports
each time at the reference speed: scaled by how fast the host ran
`bench/calibrate.py`'s kernel during that process's rounds, so that a
switch of the host's speed between processes does not read as a change.
The pairs alternate which side runs first.  It prints, for each job and for
their sum, each side's median over the pairs in milliseconds, and in how
many pairs the change was faster; then, for the sum, each side's quartiles
(by `bench_record.quartiles`, as in a BENCH record) and the median over the
pairs of the change's sum over the parent's.  A job that raised reads inf.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True
from bench_record import quartiles  # noqa: E402  (the records' quartile rule)
from run import WORKLOADS  # noqa: E402  (the benchmark's own workload list)

CHILD = """
import importlib, json, sys
sys.dont_write_bytecode = True
bench, src, name, seed, seconds = sys.argv[1:]
sys.path[:0] = [bench, src]
import run
from liecochain import dsl
workload = importlib.import_module(name)
texts, plan = workload.generate(int(seed))
jobs = workload.make_jobs({n: dsl.parse(t, n) for n, t in texts.items()}, plan)
rounds = run._rounds(jobs, float(seconds), run.MIN_ROUNDS)
print(json.dumps([[job.name, best * rounds.speed] for job, best in zip(jobs, rounds.best)]))
"""


def probe(root, workload, seed, seconds):
    """[(job name, fastest seconds at the reference speed)] of one fresh
    process on `root`/src."""
    done = subprocess.run([sys.executable, "-c", CHILD, BENCH, os.path.join(root, "src"),
                           workload, str(seed), str(seconds)],
                          cwd=root, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the checkout to compare against")
    parser.add_argument("--change", required=True, help="the checkout under test")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="rounds per process run for this long (default 2)")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in sides.items():
        if not os.path.isfile(os.path.join(root, "src", "liecochain", "cli.py")):
            parser.error(f"--{side}: no liecochain sources under {root}/src")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {side: [] for side in sides}   # per side, per pair: [(name, seconds)]
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(probe(sides[side], args.workload, args.seed, args.seconds))
    names = [name for name, _ in runs["parent"][0]]
    if any([name for name, _ in run] != names for side in runs.values() for run in side):
        sys.exit("error: the two sides built different job lists")

    # per side, per job and then the sum: the times over the pairs
    times = {side: [[run[j][1] for run in side_runs] for j in range(len(names))]
             + [[sum(t for _, t in run) for run in side_runs]]
             for side, side_runs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs, "
          f"fastest round of each job per process, at the reference speed")
    print(f"{'parent ms':>11} {'change ms':>11}  {'faster':>9}  job")
    for j, name in enumerate(names + ["sum"]):
        parent, change = times["parent"][j], times["change"][j]
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{1000 * statistics.median(parent):11.3f} {1000 * statistics.median(change):11.3f}"
              f"  {wins:>3} of {args.pairs:<3}  {name}")
    print(f"{'sum':<7} {'q1 ms':>11} {'median ms':>11} {'q3 ms':>11}")
    for side in sides:
        print(f"{side:<7}" + "".join(f" {1000 * q:11.3f}" for q in quartiles(times[side][-1])))
    ratio = statistics.median(c / p for p, c in zip(times["parent"][-1], times["change"][-1]))
    print(f"median per-pair ratio, change / parent: {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

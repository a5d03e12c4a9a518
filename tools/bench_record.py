"""Record the benchmark of a source checkout in one JSON file.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --root ../other-checkout

Runs the command of BENCHMARK.json (`bench/run.py`) once per workload and
seed 11-15, with `--seconds 30 --trace 0`, one process at a time, in the
checkout given by --root (default: the one that holds this file).  The seeds
and the run length are fixed, so that every record compares with every
other.  It writes BENCH_<N>.json at the root of that checkout, with:

- the commit (git HEAD) and whether tracked files differ from it, both
  null outside a git checkout, and a sha256 over the files under src/, which names
  exactly the sources measured;
- per workload, one record per run under the stable case name
  `<workload>/seed<N>`: its end-to-end metrics, its calibration speed factor
  (how fast the host ran the calibration kernel against the reference
  speed), and whether it was correct, with its failed and attempted counts;
- per workload and end-to-end metric, the median, the quartiles and their
  distance (IQR) over the seeds, with statistics.quantiles(values, n=4).

Nothing is written under bench/: with --trace 0, run.py writes no trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEED = re.compile(r"speed factor ([0-9.]+)")
SEEDS = range(11, 16)
SECONDS = 30


def _git(root, *args):
    done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def checkout_state(root):
    """(commit, tracked_changes): git HEAD and whether tracked files differ
    from it, both None outside a git checkout, where nothing was checked."""
    commit = _git(root, "rev-parse", "HEAD")
    if commit is None:
        return None, None
    return commit, bool(_git(root, "status", "--porcelain", "--untracked-files=no"))


def _sources_sha256(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def run_one(root, command, workload, seed):
    """One run of the benchmark as a record: its case name, seed, speed
    factor, correctness and failed/attempted counts, and its metrics."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=20 * SECONDS + 300)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    speed = SPEED.search(done.stderr)
    return {"case": f"{workload}/seed{seed}", "seed": seed,
            "speed_factor": float(speed.group(1)) if speed else None,
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(runs, units):
    """Median, quartiles and IQR of each metric over the runs."""
    out = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else values * 3)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--root", default=HERE, help="source checkout to measure")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    commit, tracked_changes = checkout_state(root)
    record = {
        "pr": args.pr,
        "commit": commit,
        "tracked_changes": tracked_changes,
        "src_sha256": _sources_sha256(root),
        "python": platform.python_version(),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_one(root, spec["command"], workload, seed))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        record["workloads"][workload] = {"runs": runs, "metrics": summary(runs, units)}
    out = os.path.join(root, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

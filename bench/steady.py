"""Steadiness of the benchmark: run each workload once per seed and print
each end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads chart_swell --seeds 1-5 --seconds 10

Run from the root of a source checkout.  Runs are sequential, one process at
a time.  The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); the bounds in BENCHMARK.json are set so
that every spread but setup_s's stays under a third of its bound.  Each run's
result line, with its summary line from standard error, is kept in
bench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    log = open(os.path.join(BENCH, "out", "steady.jsonl"), "a", encoding="utf-8")
    worst = 0.0
    with log:
        for workload in args.workloads:
            values, shares = {}, set()
            for seed in args.seeds:
                cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                if done.returncode != 0:
                    sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                note = done.stderr.strip().splitlines()[-1]
                log.write(json.dumps({"workload": workload, "seed": seed, "note": note,
                                      **result}) + "\n")
                log.flush()
                shares.add((result["failed"], result["attempted"], result["correct"]))
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
                  f"(failed, attempted, correct) {sorted(shares)}")
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                third = bounds[name] / 3
                flag = "" if name == "setup_s" or spread < third else "  OVER bound/3"
                if name != "setup_s":
                    worst = max(worst, spread / third)
                print(f"  {name:13s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.4f} (bound/3 {third:.4f}){flag}")
    print(f"largest spread as a share of bound/3: {worst:.2f}")


if __name__ == "__main__":
    main()

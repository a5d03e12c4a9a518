"""Benchmark for liecochain: one workload, one seed, one process.

    python3 bench/run.py --workload ce_spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload's job list is a closed loop with one caller: each job
starts when the previous one returns.  Rounds run the whole list again
(jobs 1..N, then 1..N) until `--seconds` have passed, with at least
MIN_ROUNDS rounds.  A job's time is its fastest round, which resists the
host's slow spells; `verdict_s` is the sum of those times.  Times are
reported at a reference speed: scaled by how fast the host ran the fixed
kernel of calibrate.py during the run.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
wraps the program's layers (see tracer.py) and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("ce_spectrum", "chart_swell", "cli_workspaces")
MIN_ROUNDS = 3
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import liecochain.cli; "
                "print(time.perf_counter() - t)")


def _setup_s(workload, seed):
    """Set-up time at the reference speed: the median time to import
    liecochain.cli in a fresh interpreter (every CLI invocation pays it; a
    first, untimed import leaves compiled bytecode) plus the median time to
    generate and parse the inputs, scaled by the calibration kernel's speed
    during the set-up.  Returns it with the last texts, plan and workspaces."""
    from liecochain import dsl
    env = dict(os.environ, PYTHONPATH=SRC)
    imports, gens, samples = [], [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        calibrate.kernel()
        samples.append(perf_counter() - t0)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            imports.append(float(done.stdout))
        gc.collect()
        start = perf_counter()
        texts, plan = workload.generate(seed)
        workspaces = {name: dsl.parse(text, name) for name, text in texts.items()}
        gens.append(perf_counter() - start)
    setup_s = (median(imports) + median(gens)) * calibrate.speed_factor(samples)
    return setup_s, texts, plan, workspaces


@dataclass
class Rounds:
    best: list          # per job, the fastest time over the rounds
    outputs: list       # per job, the first round's output
    count: int          # rounds run
    raised: int         # operations that raised
    problems: dict      # job index -> why it raised or its output changed
    speed: float        # calibrate.speed_factor of the run


def _rounds(jobs, seconds, min_rounds, after_round=None):
    """Run whole rounds of the job list, calling after_round(r) after round
    r, and time the calibration kernel between jobs every
    CALIBRATE_EVERY_S seconds."""
    res = Rounds([math.inf] * len(jobs), [None] * len(jobs), 0, 0, {}, 0.0)
    samples = []
    start = last_calibration = perf_counter()
    while res.count < min_rounds or perf_counter() - start < seconds:
        for i, job in enumerate(jobs):
            gc.collect()
            t0 = perf_counter()
            if t0 - last_calibration >= calibrate.CALIBRATE_EVERY_S or not samples:
                calibrate.kernel()
                last_calibration = perf_counter()
                samples.append(last_calibration - t0)
                gc.collect()
                t0 = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                res.problems.setdefault(i, f"raised {type(exc).__name__}: {exc}")
                res.raised += 1
                continue
            res.best[i] = min(res.best[i], perf_counter() - t0)
            if res.count == 0:
                res.outputs[i] = out
            elif out != res.outputs[i]:
                res.problems.setdefault(i, "output differs between rounds")
        if after_round is not None:
            after_round(res.count)
        res.count += 1
    res.speed = calibrate.speed_factor(samples)
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liecochain", "cli.py")):
        print(f"error: no liecochain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH, SRC]
    workload = importlib.import_module(args.workload)

    setup_s, texts, plan, workspaces = _setup_s(workload, args.seed)
    jobs = workload.make_jobs(workspaces, plan)

    if not args.trace:
        run = _rounds(jobs, args.seconds, MIN_ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = run.raised
    else:
        run = _rounds(jobs, args.seconds / 2, 2)
        layer, traced = _traced(args, jobs, texts)
        failed = run.raised + traced.raised

    # Outputs of operations that did not raise are checked; a wrong one makes
    # the run incorrect, an operation that raised counts as failed.
    problems = run.problems
    ok = [i for i in range(len(jobs)) if i not in problems]
    wrong = workload.check([jobs[i] for i in ok], [run.outputs[i] for i in ok], plan)
    problems.update({ok[i]: why for i, why in wrong.items()})
    for i, why in sorted(problems.items()):
        print(f"FAILED {jobs[i].name}: {why}", file=sys.stderr)
    correct = all(why.startswith("raised") for why in problems.values())
    ok = [i for i in range(len(jobs)) if i not in problems]
    rounds = run.count + (traced.count if args.trace else 0)
    raw_s = sum(run.best[i] for i in ok)

    if not args.trace:
        metrics = {
            "verdict_s": _metric(raw_s * run.speed, "s"),
            "output_chars": _metric(sum(len(jobs[i].render(run.outputs[i])) for i in ok),
                                    "chars"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
    else:
        from tracer import METRICS
        layer["trace.overhead_s"] = (sum(traced.best[i] for i in ok) * traced.speed
                                     - raw_s * run.speed)
        metrics = {name: _metric(layer.get(name, 0), unit) for name, unit in METRICS}

    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {rounds} rounds, "
          f"{raw_s:.4f} s as measured, speed factor {run.speed:.4f}", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": rounds * len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


def _traced(args, jobs, texts):
    """Wrap the layers, parse the inputs once and run the job list for half
    the run.  Counters cover that parse plus the first round; a layer's self
    time is the parse's plus the fastest round's, at the reference speed.
    Returns the layer metrics and the traced Rounds."""
    from liecochain import dsl
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    fastest = {layer: math.inf for layer in LAYERS}
    layer = {}

    def after_round(r):
        tracer.recording = False
        for name in LAYERS:
            fastest[name] = min(fastest[name], tracer.self_s[name] - parse_self.get(name, 0)
                                if r == 0 else tracer.self_s[name])
        if r == 0:
            layer.update(tracer.layer_metrics())
        tracer.reset_counts()

    tracer.install()
    try:
        tracer.recording = True
        for name, text in texts.items():
            dsl.parse(text, name)
        parse_self = dict(tracer.self_s)
        run = _rounds(jobs, args.seconds / 2, 1, after_round)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for name in LAYERS:
        layer[f"{name}.self_s"] = (parse_self.get(name, 0) + fastest[name]) * run.speed
    return layer, run


if __name__ == "__main__":
    sys.exit(main())

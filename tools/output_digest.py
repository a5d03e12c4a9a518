"""One digest over the program's observable outputs, to show that a change
leaves them byte-identical.

    python3 tools/output_digest.py

Run from any directory; the package is imported from the `src/` next to
this file, and the workload generators from `bench/`, which are only read.
For each seed 0-4 the digest covers:

- every `cli_workspaces` command, run in process with the workspace on
  standard input, once as JSON and once as text with `-v` and
  LIECOCHAIN_COLOR=0: exit code, standard output and standard error;
- the rendered output of every `chart_swell` job, or the exception it raised;
- the cohomology dimension, the relative dimensions and the rendered
  representatives of every `ce_spectrum` job, or the exception it raised;
- `dsl.render` of every workspace the three workloads generate.

It prints the number of outputs and one sha256 over all of them, each
preceded by a label that names its seed and source.  Run it on two commits
and compare the lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
os.environ["LIECOCHAIN_COLOR"] = "0"
os.environ.pop("LIECOCHAIN_TIMING", None)

import ce_spectrum  # noqa: E402
import chart_swell  # noqa: E402
import cli_workspaces  # noqa: E402
from liecochain import cli, dsl  # noqa: E402

SEEDS = range(5)


def _cli(argv, text):
    """Exit code, standard output and standard error of `cli.main(argv)`
    with `text` on standard input."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--input", "-"])
    finally:
        sys.stdin = stdin
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _job_output(job, summary=lambda result: ""):
    try:
        result = job.run()
        return summary(result) + job.render(result)
    except Exception as exc:  # a raised job is an output too
        return f"raised {type(exc).__name__}: {exc}"


def _cohomology(result):
    return f"H {result.dimension}\nrelative_dims {result.relative_dims}\n"


def outputs(seed):
    """(label, text) for every output of one seed."""
    texts, plan = cli_workspaces.generate(seed)
    for ws, argv, _, _ in plan["commands"]:
        label = f"seed {seed} {ws}: {' '.join(argv)}"
        yield f"{label} [json]", _cli(argv + ["--format", "json"], texts[ws])
        yield f"{label} [text]", _cli(argv + ["-v"], texts[ws])
    swell_texts, swell_plan = chart_swell.generate(seed)
    workspaces = {name: dsl.parse(text, name) for name, text in swell_texts.items()}
    for job in chart_swell.make_jobs(workspaces, swell_plan):
        yield f"seed {seed} chart_swell {job.name}", _job_output(job)
    spectrum_texts, spectrum_plan = ce_spectrum.generate(seed)
    workspaces = {name: dsl.parse(text, name) for name, text in spectrum_texts.items()}
    for job in ce_spectrum.make_jobs(workspaces, spectrum_plan):
        yield f"seed {seed} ce_spectrum {job.name}", _job_output(job, _cohomology)
    for name, text in {**texts, **swell_texts, **spectrum_texts}.items():
        yield f"seed {seed} render {name}", dsl.render(dsl.parse(text, name))


def main():
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for label, text in outputs(seed):
            digest.update(f"{label}\0{text}\0".encode())
            count += 1
    print(f"{count} outputs")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

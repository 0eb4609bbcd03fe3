"""Run the benchmark's ops through one tree's CLI and keep every output.

    python3 tools/op_outputs.py TREE DEST

TREE is a checkout of this repository (its ``src/normshift`` is the program
under test); DEST is a new or empty directory.  The ops come from
``perfbench/workloads.py`` next to this script: the first two cycles of every
workload at seeds 1, 2 and 3.  Each op runs twice through TREE's
``normshift.cli.main`` in this process, once with and once without
``--emit-plotdata``.  A run writes its config and its output directory into
``DEST/<workload>/seed<n>/op<i>[-plot]/``, called from there with the
relative paths ``config.json`` and ``out``, so the files and printed paths of
two trees are comparable.  ``DEST/runs.json`` logs each run's exit code,
standard output and standard error; an uncaught exception is logged with
its type and message in place of the exit code, and its traceback in the
standard error.  The script exits 1 if any run ended in one, if a run that
exited 0 wrote anything to standard error, or if a ``.json`` file a run
wrote is not strict JSON (``NaN``, ``Infinity`` and ``-Infinity``, which
Python's ``json`` writes and reads, are not JSON values): each op ends in
an exit code, a traceback is a bug, and so is a warning, such as NumPy's,
that leaks out of a successful op, or a number that no JSON reader takes.

The output check of a change that should leave every output as it was:

    python3 tools/op_outputs.py PARENT_TREE /tmp/before
    python3 tools/op_outputs.py .           /tmp/after
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import sys
import traceback
from pathlib import Path

SEEDS = (1, 2, 3)
CYCLES = 2
PLOT = "--emit-plotdata"


def run_op(main, op, plot: bool, run_dir: Path) -> dict:
    """One op through ``main`` from ``run_dir``; its log entry."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(op.config))
    flags = [f for f in op.flags if f != PLOT] + ([PLOT] if plot else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([op.subcommand, "--config", "config.json", "--out", "out", *flags])
            except Exception as exc:  # a traceback is logged as the run's outcome
                code = f"uncaught {type(exc).__name__}: {exc}"
                stderr.write(traceback.format_exc())
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _not_json(name: str):
    raise ValueError(f"{name} is not a JSON value")


def loose_json(run_dir: Path) -> list[str]:
    """The ``.json`` files under ``run_dir`` that are not strict JSON, each
    with the reason."""
    loose = []
    for path in sorted(run_dir.rglob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_not_json)
        except ValueError as exc:
            loose.append(f"{path.relative_to(run_dir).as_posix()}: {exc}")
    return loose


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, dest = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (tree / "src" / "normshift" / "cli.py").is_file():
        print(f"no program: {tree / 'src' / 'normshift'} is missing", file=sys.stderr)
        return 2
    if dest.exists() and any(dest.iterdir()):
        print(f"{dest} is not empty", file=sys.stderr)
        return 2
    sys.path[:0] = [str(tree / "src"), str(Path(__file__).resolve().parents[1] / "perfbench")]
    from normshift import cli
    from workloads import WORKLOADS, ops_for

    runs, loose = {}, {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for op in itertools.chain.from_iterable(
                    itertools.islice(ops_for(workload, seed), CYCLES)):
                for plot in (False, True):
                    run = Path(name, f"seed{seed}", f"op{op.index}" + ("-plot" if plot else ""))
                    runs[run.as_posix()] = run_op(cli.main, op, plot, dest / run)
                    if found := loose_json(dest / run):
                        loose[run.as_posix()] = found
    with open(dest / "runs.json", "w") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = collections.Counter(str(r["exit"]) for r in runs.values())
    print(f"{len(runs)} runs of {cli.__file__}; exit codes {dict(codes)}")
    uncaught = [run for run, r in runs.items() if isinstance(r["exit"], str)]
    for run in uncaught:
        print(f"{run}: {runs[run]['exit']}", file=sys.stderr)
    noisy = [run for run, r in runs.items() if r["exit"] == 0 and r["stderr"]]
    for run in noisy:
        print(f"{run}: exit 0, but wrote to standard error: {runs[run]['stderr']!r}",
              file=sys.stderr)
    for run, found in loose.items():
        print(f"{run}: not strict JSON: {'; '.join(found)}", file=sys.stderr)
    return 1 if uncaught or noisy or loose else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload's traced op set:

1. The counts in ``EXACT`` repeat exactly: in two traced runs in this process
   and in a third, ``run.py --trace 1``, in a child process.
2. In every traced op the self times of all spans add up to the op's root
   span, and every span lies inside its parent.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import numpy as np

import run
from tracing import layer_metrics
from workloads import WORKLOADS, ops_for

EXACT = ("forces.evals", "dynamics.rhs.calls", "dynamics.states.calls",
         "odesolve.steps_accepted", "odesolve.steps_rejected", "numdiff.calls")


def check_spans(tracer) -> list[str]:
    """Problems with the span tree of a traced run; empty when it is sound."""
    a = tracer.arrays()
    problems = []
    inner = a["parent"] >= 0
    par = a["parent"][inner]
    if np.any(a["start"][inner] < a["start"][par]) or np.any(a["end"][inner] > a["end"][par]):
        problems.append("a span lies outside its parent")
    selfs = tracer.self_times()
    if np.any(selfs < -1e-9):
        problems.append("a span has negative self time")
    sums = np.bincount(a["op"], weights=selfs)
    for op, root in tracer.op_durations().items():
        if abs(sums[op] - root) > 1e-9 * max(1.0, root):
            problems.append(f"op {op}: self times add to {sums[op]:.9f} s, "
                            f"root span is {root:.9f} s")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from normshift import cli

    work_dir = run.OUT / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _selftest(args, run.Runner(cli.main, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _selftest(args, runner) -> int:
    failures = 0
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        counts, problems = [], []
        for _ in range(2):
            ops = run.trace_set(workload, ops_for(workload, args.seed))
            _, tracer = run.traced_run(runner, ops)
            metrics = layer_metrics(tracer, 0)
            counts.append({k: metrics[k][0] for k in EXACT})
            problems += check_spans(tracer)
        for p in problems:
            print(f"FAIL {name}: {p}")
        failures += bool(problems)
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--trace", "1"],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"FAIL {name}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
            failures += 1
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: child[k]["value"] for k in EXACT})
        if counts[0] == counts[1] == counts[2]:
            print(f"ok   {name}: counts repeat across runs and processes: {counts[0]}")
        else:
            print(f"FAIL {name}: counts differ: {counts}")
            failures += 1
        if not problems:
            print(f"ok   {name}: self times add up to each op span")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the normshift CLI: seeded workloads run in-process, end to end.

    python3 perfbench/run.py --workload shift-flat --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 16

One process runs one workload as a closed loop with one client: each op is
``normshift.cli.main(argv)`` on a freshly generated config, and the next op
starts when the previous one has returned and its output has been checked.

With ``--trace 0`` the run measures as many whole cycles of ops as took
``--seconds`` when the benchmark was written, and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed set of ops (the workload's
first cycles) once untraced and once traced, and reports the per-layer
metrics; the fixed set makes every count repeat exactly for a given seed.  ``--all`` runs every workload both ways, in
child processes, and prints the tables.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every op that exited non-zero or whose output failed its check; ``correct``
is false when an op gave a wrong answer or failed in a way other than the
known defects listed in ``workloads.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import KNOWN_DEFECTS, WORKLOADS, Op, check_output, exit_defect, ops_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# Nominal wall time of one calibration loop; see SpeedScale.
CALIBRATION_S = 0.005
WARMUP_S = 1.0
TAIL_BEYOND = 10
WORK_NAMES = {"nodes": "nodes_per_s", "probes": "probes_per_s", "samples": "samples_per_s"}


@dataclass
class Record:
    op: Op
    seconds: float
    reason: str | None = None   # None when the op completed and its output checked
    defect: str | None = None   # the known defect behind the failure, if any


class Runner:
    """Runs ops through ``cli.main`` in this process and checks their output."""

    def __init__(self, main, work_dir: Path):
        self.main = main
        self.work_dir = work_dir

    def run(self, op, call=None) -> Record:
        cfg_path = self.work_dir / f"op{op.index}.json"
        out_dir = self.work_dir / f"op{op.index}"
        cfg_path.write_text(json.dumps(op.config))
        argv = op.argv(cfg_path, out_dir)
        call = call or self.main
        stderr = io.StringIO()
        rc, failure = None, None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = call(argv)
            except Exception as exc:  # a traceback from the CLI is a failed op
                failure = (f"uncaught {type(exc).__name__}: {exc}", None)
            seconds = time.perf_counter() - start
        if rc == 0:
            failure = check_output(op, out_dir)
        elif rc is not None:
            lines = stderr.getvalue().strip().splitlines()
            message = lines[-1] if lines else "no message"
            failure = (f"exit {rc}: {message}", exit_defect(op, rc, message))
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path.unlink()
        return Record(op, seconds, *(failure or ()))


def calibration_loop() -> float:
    """Wall time of a fixed mix of scalar Python and small NumPy operations,
    the kind of work normshift spends its time on; median of three."""
    times = []
    for _ in range(3):
        v = np.array([0.3, 0.4])
        acc = 0.0
        start = time.perf_counter()
        for i in range(1500):
            w = v * 1.0001 + 0.5
            acc += float(np.hypot(w[0], w[1])) + math.sin(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedScale:
    """Scale factors to nominal machine speed for a sequence of calls.

    The machine's speed drifts by 20% and more over seconds.  Each call is
    bracketed by calibration loops; a time measured inside it, multiplied by
    CALIBRATION_S over the mean of the two loops, is what it would have taken
    at nominal speed, as far as the call and the loops share the drift.  The
    shorter the call, the more of the drift they share.
    """

    def __init__(self):
        self.before = calibration_loop()

    def __call__(self, fn):
        """(fn(), scale factor for times measured during the call)."""
        result = fn()
        after = calibration_loop()
        factor = CALIBRATION_S / (0.5 * (self.before + after))
        self.before = after
        return result, factor


def _measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing normshift.cli.

    Not speed-scaled: the import runs in another process, and scaling it by
    loops timed in this one widened its spread from run to run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import normshift.cli"],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"import normshift.cli failed: {proc.stderr.decode()[-500:]}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten ops beyond it.

    With fewer than twenty ops no percentile at or above the median has ten
    beyond it, and the median is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def summarize(records: list[Record]) -> tuple[bool, int, int]:
    failed = [r for r in records if r.reason is not None]
    correct = all(r.defect for r in failed)
    return correct, len(records), len(failed)


def print_failures(records: list[Record], defects: dict):
    failed = [r for r in records if r.reason is not None]
    if not failed:
        print("failed ops: none")
        return
    print(f"failed ops: {len(failed)}")
    for r in failed:
        tag = f"known defect {r.defect}" if r.defect else "UNEXPECTED"
        print(f"  op {r.op.index} {r.op.kind}: {r.reason} [{tag}]")
    for key in sorted({r.defect for r in failed if r.defect}):
        print(f"  known defect {key}: {defects[key]}")


def _op_metrics(done: list[Record], times: list[float]) -> dict:
    pct, tail_value = tail(times)
    return {"op_s.p50": statistics.median(times), "op_s.tail": tail_value,
            "tail_pct": pct, "work_per_s": sum(r.op.work for r in done) / sum(times)}


def end_to_end(workload, runner, stream, seconds: float) -> tuple[list[Record], dict]:
    setup = _measure_setup()
    scale = SpeedScale()
    records, scaled = [], []
    start = time.perf_counter()
    for _, cycle in zip(range(workload.cycles_for(seconds)), stream):
        for op in cycle:
            record, factor = scale(lambda: runner.run(op))
            records.append(record)
            scaled.append(record.seconds * factor)
    measured = time.perf_counter() - start
    ok = [i for i, r in enumerate(records) if r.reason is None]
    if not ok:
        return records, {}
    done = [records[i] for i in ok]
    wall = _op_metrics(done, [r.seconds for r in done])
    norm = _op_metrics(done, [scaled[i] for i in ok])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(records) - len(ok)
    print(f"ops attempted {len(records)}, completed {len(ok)}, measured {measured:.1f} s; "
          f"op times scaled to nominal speed (wall time in brackets)")
    print(f"  setup_s        {statistics.median(setup):.4f} s   median of {len(setup)} "
          "fresh imports: " + ", ".join(f"{t:.3f}" for t in setup))
    print(f"  op_s.p50       {norm['op_s.p50']:.4f} s   [{wall['op_s.p50']:.4f}]  n={len(ok)}")
    print(f"  op_s.tail      {norm['op_s.tail']:.4f} s   [{wall['op_s.tail']:.4f}]  "
          f"p{norm['tail_pct']:.1f}, n={len(ok)}")
    print(f"  {WORK_NAMES[workload.unit]:14s} {norm['work_per_s']:.1f} {workload.unit}/s "
          f"[{wall['work_per_s']:.1f}]  reported as work_per_s")
    print(f"  failed_frac    {failed / len(records):.4f}     {failed} of {len(records)}")
    print(f"  peak_rss_mb    {rss_mb:.1f} MB")
    return records, {"setup_s": (statistics.median(setup), "s"),
                     "op_s.p50": (norm["op_s.p50"], "s"),
                     "op_s.tail": (norm["op_s.tail"], "s"),
                     "work_per_s": (norm["work_per_s"], "1/s"),
                     "peak_rss_mb": (rss_mb, "MB")}


def trace_set(workload, stream) -> list:
    """The fixed ops of a traced run: the workload's first cycles."""
    return [op for _, cycle in zip(range(workload.trace_cycles), stream) for op in cycle]


def traced_run(runner, ops):
    """Run ops under a fresh tracer; returns their records and the tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        records = [runner.run(op, lambda argv, i=op.index: tracer.run_op(i, runner.main, argv))
                   for op in ops]
    finally:
        tracer.uninstall()
    return records, tracer


def per_layer(workload, runner, stream, spans_path: Path) -> tuple[list[Record], dict]:
    ops = trace_set(workload, stream)
    plain = [runner.run(op) for op in ops]
    traced, tracer = traced_run(runner, ops)
    tracer.save(spans_path)
    probes = sum(op.work for op in ops if op.subcommand == "check")
    metrics = layer_metrics(tracer, probes)
    metrics["trace.overhead"] = (sum(r.seconds for r in traced) / sum(r.seconds for r in plain),
                                 "ratio")
    print(f"traced ops {len(ops)}; spans {len(tracer.start)} written to "
          f"{spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {_fmt(value)} {unit}")
    return traced, metrics


def _fmt(value) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def run_workload(args) -> int:
    if not (SRC / "normshift" / "cli.py").is_file():
        print(f"no program: {SRC / 'normshift'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from normshift import cli

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli.main, work_dir)
        warm = ops_for(workload, args.seed, warmup=True)
        start = time.perf_counter()
        for op in next(warm):
            runner.run(op)
            if time.perf_counter() - start >= WARMUP_S:
                break
        stream = ops_for(workload, args.seed)
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            spans = OUT / "trace" / f"{workload.name}-seed{args.seed}.npz"
            records, metrics = per_layer(workload, runner, stream, spans)
        else:
            records, metrics = end_to_end(workload, runner, stream, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_failures(records, KNOWN_DEFECTS)
    if not metrics:
        print("no op completed; nothing to report", file=sys.stderr)
        return 1
    correct, attempted, failed = summarize(records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload end to end, then every workload traced, in child processes."""
    workloads = list(WORKLOADS)
    results = {}
    for trace in (0, 1):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[(w, trace)] = json.loads(lines[-1])
            print()
    for trace, title in ((0, "end to end"), (1, "per layer (traced run)")):
        print(f"== {title} ==")
        print(f"{'metric':42s}" + "".join(f"{w:>17s}" for w in workloads))
        first = results[(workloads[0], trace)]["metrics"]
        for name, spec in first.items():
            cells = [results[(w, trace)]["metrics"][name]["value"] for w in workloads]
            print(f"{name + ' [' + spec['unit'] + ']':42s}"
                  + "".join(f"{_fmt(c):>17s}" for c in cells))
        tallies = (results[(w, trace)] for w in workloads)
        print(f"{'correct attempted failed':42s}" + "".join(
            f"{'{correct} {attempted} {failed}'.format(**r):>17s}" for r in tallies))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

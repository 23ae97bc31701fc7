#!/usr/bin/env python3
"""fluxchain benchmark: one workload, timed in fresh processes, then checked.

    python3 bench/run.py --workload splitting_n3 --seed 1 --seconds 30 --trace 0

Runs whole passes of the workload, each in a new process, until the next
pass would end after ``--seconds`` (at least two passes); untraced runs
first start five processes that only set up.  With ``--trace 0``
it reports the end-to-end metrics (medians over the passes):

* ``run_s``: wall time of one pass, first call into fluxchain to last
  artifact written;
* ``setup_s``: process start to that first call (interpreter, imports of
  numpy, scipy and fluxchain, input generation);
* ``peak_rss_mib``: peak resident memory of the pass's process.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_s``.  After the
timed passes every pass's artifacts are checked against ``reference.py``
and against properties the method must have.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Artifacts, spans and a record of the run go to
``.bench_out/`` under the checkout.  ``--quick`` runs tiny specs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PASSRUN = os.path.join(BENCH, "passrun.py")

#: the run must end within this many seconds, checks included
HARD_LIMIT_S = 170.0
MIN_PASSES = 2
#: set-up-only processes per untraced run, besides the passes' own set-up
SETUP_PROBES = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, out_dir: str, t_begin: float, traced: bool = False,
              mode: str = "pass") -> dict:
    cmd = [sys.executable, PASSRUN, "--workload", args.workload, "--seed", str(args.seed),
           "--out", out_dir, "--trace", str(int(traced)), "--mode", mode]
    if args.quick:
        cmd.append("--quick")
    budget = HARD_LIMIT_S - (time.monotonic() - t_begin)
    if budget <= 0:
        raise BenchError("time limit reached before a pass could start")
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass exceeded the {HARD_LIMIT_S:.0f} s limit")
    wall = time.monotonic() - spawn
    if proc.returncode != 0:
        raise BenchError(f"pass process exited with {proc.returncode}:\n{err[-3000:]}")
    if mode == "serial":
        return {}
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(setup_s=result["t_first_call"] - spawn, wall_s=wall,
                  traced=traced, dir=out_dir)
    return result


def setup_probes(args, run_dir: str, t_begin: float) -> list[float]:
    """Set-up times of processes that stop at the first call into fluxchain."""
    return [run_child(args, os.path.join(run_dir, f"setup{i}"), t_begin,
                      mode="setup")["setup_s"] for i in range(SETUP_PROBES)]


def timed_passes(args, run_dir: str, t_begin: float, t_loop: float) -> list[dict]:
    """Whole passes until the next one would end after --seconds."""
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_child(args, os.path.join(run_dir, f"pass{len(passes)}"),
                                t_begin, traced))
        predicted_end = time.monotonic() - t_loop + passes[-1]["wall_s"]
        if len(passes) >= MIN_PASSES and predicted_end > args.seconds:
            return passes


def check_passes(args, inp: dict, passes: list[dict], run_dir: str,
                 t_begin: float) -> dict[str, list[str]]:
    """{pass/operation: failures}, one entry per attempted operation.

    An operation that raised has "raised ..." as its first failure.
    """
    outputs = [workloads.collect(inp, p["dir"]) for p in passes]
    ref = workloads.reference(inp, outputs[0])
    serial_csv = None
    if args.workload == "cli_small":
        serial_dir = os.path.join(run_dir, "serial")
        run_child(args, serial_dir, t_begin, mode="serial")
        with open(os.path.join(serial_dir, "disorder", "disorder.csv"), "rb") as fh:
            serial_csv = fh.read()
    report = {}
    for i, (p, out) in enumerate(zip(passes, outputs)):
        failures = workloads.check(inp, out, ref)
        for op, message in p["errors"].items():
            failures.setdefault(op, []).insert(0, f"raised {message}")
        if serial_csv is not None:
            try:
                with open(os.path.join(p["dir"], "disorder", "disorder.csv"), "rb") as fh:
                    same = fh.read() == serial_csv
            except OSError:
                same = False
            if not same:
                failures["disorder"].append("CSV differs from the --jobs 1 run")
        for op, msgs in failures.items():
            report[f"pass{i}/{op}"] = msgs
    return report


def verdict(report: dict[str, list[str]]) -> tuple[dict[str, list[str]], bool]:
    """(failed operations, correct) of a run.

    An operation that raised counts as failed.  One that ran to its end and
    then failed a check also makes the run incorrect.
    """
    failed = {key: msgs for key, msgs in report.items() if msgs}
    return failed, all(msgs[0].startswith("raised ") for msgs in failed.values())


def median(values) -> float:
    return float(statistics.median(values))


def metrics(args, passes: list[dict], setups: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    if not args.trace:
        values = {"run_s": (median(p["run_s"] for p in plain), "s"),
                  "setup_s": (median(setups + [p["setup_s"] for p in plain]), "s"),
                  "peak_rss_mib": (median(p["maxrss_mib"] for p in plain), "MiB")}
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: (median(p["layers"][name] for p in traced), unit)
                  for name, unit in tracing.LAYER_UNITS.items()
                  if not name.startswith(("process.", "trace."))}
        values["process.cpu_s"] = (median(p["cpu_s"] for p in plain), "s")
        values["process.cpu_per_wall"] = (median(p["cpu_s"] / p["run_s"] for p in plain),
                                          "ratio")
        values["trace.overhead_s"] = (median(p["run_s"] for p in traced)
                                      - median(p["run_s"] for p in plain), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny specs, for tests")
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "fluxchain", "__init__.py")):
        print(f"error: no fluxchain sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    inp = workloads.make_inputs(args.workload, args.seed, args.quick)
    run_dir = os.path.join(ROOT, ".bench_out", args.workload,
                           f"seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    try:
        t_loop = time.monotonic()
        setups = [] if args.trace else setup_probes(args, run_dir, t_begin)
        passes = timed_passes(args, run_dir, t_begin, t_loop)
        report = check_passes(args, inp, passes, run_dir, t_begin)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed, correct = verdict(report)
    absent = sorted({m for p in passes for m in
                     tracing.absent_metrics(p.get("absent", []))})
    result = {"correct": correct, "attempted": len(report), "failed": len(failed),
              "metrics": metrics(args, passes, setups)}
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "seconds": args.seconds, "commit": git_commit(),
        "inputs": inp, "nproc": workloads.nproc(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "setup_probes_s": setups,
        "passes": [{k: p[k] for k in ("traced", "run_s", "setup_s", "wall_s",
                                      "cpu_s", "maxrss_mib")} for p in passes],
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": failed, "absent_metrics": absent,
    }
    with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result}, fh, indent=2)
    for key, msgs in failed.items():
        print(f"FAILED {key}: {'; '.join(msgs)}")
    if absent:
        print(f"absent (wrapped name missing, reported as 0): {', '.join(absent)}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

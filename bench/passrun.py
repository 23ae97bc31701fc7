"""One pass of a workload in a fresh process; run by ``run.py``.

Each pass needs its own process: ``fluxchain.manybody._engine`` keeps up to
16 engines in an ``lru_cache``, so a second pass in the same process would
reuse the first pass's engines, and ``ru_maxrss`` would mix the passes.

With ``--mode setup`` it stops at the first call: ``run.py`` repeats set-up
alone to get a steady median of the set-up time.

Writes ``result.json`` into ``--out``: the monotonic time of the first call
into fluxchain (the parent subtracts its spawn time to get the set-up time),
the pass's wall and CPU time, its peak RSS, the operations that raised, and
with ``--trace 1`` the per-layer totals (spans go to ``spans.json``).
"""

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy  # noqa: E402,F401  -- imports are part of the set-up time
import scipy  # noqa: E402,F401

import fluxchain  # noqa: E402,F401
import fluxchain.cli  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--mode", choices=("pass", "setup", "serial"), default="pass",
                    help="setup: stop at the first call; serial: run only "
                         "cli_small's disorder command, with --jobs 1")
    args = ap.parse_args()

    inp = workloads.make_inputs(args.workload, args.seed, args.quick)
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "serial":
        ops = dict(workloads.cli_operations(inp, args.out, jobs=1))
        workloads.run_cli(ops["disorder"])
        return 0

    tracer = tracing.Tracer() if args.trace else None
    absent = tracing.install(tracer) if tracer else []

    cpu0 = os.times()
    t0 = time.monotonic()
    if args.mode == "setup":
        _write(args.out, {"t_first_call": t0})
        return 0
    errors = workloads.run_pass(inp, args.out)
    t1 = time.monotonic()
    cpu1 = os.times()

    result = {
        "t_first_call": t0,
        "run_s": t1 - t0,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["absent"] = absent
        tracer.write(os.path.join(args.out, "spans.json"))
    _write(args.out, result)
    return 0


def _write(out_dir: str, result: dict) -> None:
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Disorder study: averaged splitting and its spread versus coupling for a
chain with gaussian atomic-frequency scatter, exact engine where the space is
small and the dominant-order estimator everywhere."""

import argparse
import csv
import os

import numpy as np

from fluxchain.disorder import DisorderEnsembleSpec, ensemble_splitting
from fluxchain.manybody import ManyBodySpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--amplitude", type=float, default=0.5)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--g-grid", type=float, nargs="+",
                    default=[1.0, 1.2, 1.4, 1.6])
    ap.add_argument("--out-dir", default="runs/disorder_ensemble")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "ensemble.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["g", "engine", "mean_delta", "std_delta", "count", "seed"])
        for g in args.g_grid:
            base = ManyBodySpec.from_coupling(args.n, 1, g)
            dspec = DisorderEnsembleSpec(base=base, amplitude=args.amplitude,
                                         count=args.count, seed=args.seed)
            for engine in ("exact", "analytic"):
                deltas = ensemble_splitting(dspec, engine=engine)
                mean, std = float(np.mean(deltas)), float(np.std(deltas))
                w.writerow([g, engine, repr(mean), repr(std), args.count, args.seed])
                print(f"g={g} {engine}: <delta>={mean:.4e} sigma={std:.4e}")
    print("wrote", path)


if __name__ == "__main__":
    main()

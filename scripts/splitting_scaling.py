#!/usr/bin/env python3
"""Splitting-decay study: sweep the coupling for a few chain sizes, fit the
decay exponent of delta/omega_F against g^2, and compare with the closed-form
exponent.  Writes one sweep CSV per size plus a summary JSON."""

import argparse
import os

from fluxchain.asymptotics import beta_exponent
from fluxchain.cli import fit_beta, write_json
from fluxchain.manybody import ManyBodySpec, ground_splittings


GRIDS = {
    2: ([1.0, 1.2, 1.4, 1.6, 1.8], dict(even_floor=8)),
    3: ([0.9, 1.0, 1.1, 1.2, 1.3], dict(even_floor=12)),
    4: ([0.7, 0.8, 0.9, 1.0], dict(even_floor=12)),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--out-dir", default="runs/splitting_scaling")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    summary = {}
    for n in args.sizes:
        grid, kw = GRIDS[n]
        records = []
        for g in grid:
            spec = ManyBodySpec.from_coupling(n, n, g, **kw)
            rec = ground_splittings([spec], tol=1e-2)[0]
            records.append(rec)
            print(f"N={n} g={g}: delta/omega_F = {rec.delta_over_omega_atom:.4e} "
                  f"(converged={rec.converged}, dim={spec.dimension})")
        fit = fit_beta(records)
        summary[str(n)] = {
            "beta_fit": fit.beta,
            "beta_closed_form": beta_exponent(n, n),
            "bounds": [1.6 * n * n, 2.1 * n * n],
            "points": [
                {"g": r.g, "delta_over_omegaF": r.delta_over_omega_atom,
                 "converged": r.converged}
                for r in records
            ],
        }
        print(f"N={n}: fitted beta {fit.beta:.3f}, closed form "
              f"{beta_exponent(n, n):.3f}")
    write_json(os.path.join(args.out_dir, "summary.json"), summary)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Low-lying spectrum of the five-atom, three-mode chain versus coupling,
plus the overlap of the quasi-degenerate ground doublet with the
strong-coupling product vacua.  Emits a tidy CSV for external plotting."""

import argparse
import csv
import os

import numpy as np

from fluxchain.asymptotics import doublet_overlap
from fluxchain.manybody import SECTORS, ManyBodySpec, sector_spectra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=15)
    ap.add_argument("--g-max", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--safety", type=float, default=2.5)
    ap.add_argument("--out-dir", default="runs/spectrum_vs_coupling")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "spectrum.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["g", "level", "energy", "energy_minus_ground", "fidelity"])
        for g in np.linspace(args.g_max / args.points, args.g_max, args.points):
            spec = ManyBodySpec.from_coupling(5, 3, float(g), safety=args.safety)
            # either sector may hold all of the lowest levels
            se, so = sector_spectra([(spec, s) for s in SECTORS], args.levels,
                                    with_vectors=True)
            energies = np.sort(np.concatenate([se.eigenvalues, so.eigenvalues]))
            energies = energies[: args.levels]

            fid = doublet_overlap((se.vectors[0], so.vectors[0])).fidelity

            for i, e in enumerate(energies):
                w.writerow([float(g), i, float(e), float(e - energies[0]),
                            fid if i == 0 else ""])
            print(f"g={g:.3f}: E0={energies[0]:.4f} doublet gap "
                  f"{energies[1]-energies[0]:.3e} fidelity {fid:.4f}")
    print("wrote", path)


if __name__ == "__main__":
    main()

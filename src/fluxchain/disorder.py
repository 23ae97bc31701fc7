"""Ensemble studies of site-dependent atomic-frequency disorder.

Frequencies are drawn as wF_j = wF (1 + amplitude * xi_j) with standard
normal xi from a per-realization child generator (PCG64 seeded with
[seed, realization]), so realizations are independent of execution order and
worker count.  Negative samples are kept; the Hamiltonian stays Hermitian and
the analytic estimator applies its product formula verbatim (signed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import analytic_splitting_general, asymptotic_vacuum
from .manybody import ManyBodySpec, ground_splitting, parallel_map, spin_diagonal

#: exact-engine ensembles refuse specs above this many basis states
EXACT_ENGINE_BUDGET = 2_000_000


class DisorderError(ValueError):
    pass


@dataclass(frozen=True)
class DisorderEnsembleSpec:
    """Base model, relative disorder amplitude, realization count and seed."""

    base: ManyBodySpec
    amplitude: float
    count: int
    seed: int

    def __post_init__(self):
        if self.amplitude < 0:
            raise DisorderError("amplitude must be non-negative")
        if self.count < 1:
            raise DisorderError("count must be at least 1")


def sample_frequencies(spec: DisorderEnsembleSpec) -> np.ndarray:
    """(count, N) array of disordered atomic frequencies.

    Realization r uses np.random.default_rng([seed, r]); the draw for a given
    (seed, r) never depends on the other realizations.
    """
    base = np.asarray(spec.base.omega_atoms, dtype=float)
    out = np.empty((spec.count, spec.base.n_atoms))
    for r in range(spec.count):
        xi = np.random.default_rng([spec.seed, r]).standard_normal(spec.base.n_atoms)
        out[r] = base * (1.0 + spec.amplitude * xi)
    return out


def ensemble_splitting(spec: DisorderEnsembleSpec, engine: str = "exact",
                       jobs: int = 1) -> np.ndarray:
    """Splitting of each realization, in realization order.

    Realization r has the atomic frequencies of row r of
    ``sample_frequencies(spec)``.  engine='exact' runs the sector eigensolvers
    at the base cutoffs (bounded by ``EXACT_ENGINE_BUDGET``); engine='analytic'
    evaluates the dominant-order closed form, whose per-realization value is
    signed.  Realizations are independent jobs and come back in realization
    order, so the worker count never changes the output.
    """
    if engine not in ("exact", "analytic"):
        raise DisorderError("engine must be 'exact' or 'analytic'")
    if engine == "exact" and spec.base.dimension > EXACT_ENGINE_BUDGET:
        raise DisorderError(
            f"exact engine refused: dimension {spec.base.dimension} exceeds "
            f"{EXACT_ENGINE_BUDGET}; use the analytic engine"
        )
    base = spec.base

    def one(omega) -> float:
        if engine == "exact":
            return ground_splitting(base.with_omega_atoms(omega), refine=False).delta
        return analytic_splitting_general(base.n_atoms, base.n_modes, base.g,
                                          omega, base.omega_modes[0])

    return np.array(parallel_map(one, sample_frequencies(spec), jobs), dtype=float)


def perturbation_diagonal(spec: ManyBodySpec, deltas) -> np.ndarray:
    """Diagonal of H_pert = sum_j (Delta_j / 2) sz_j over the full basis."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (spec.n_atoms,):
        raise DisorderError("need one Delta per atom")
    return np.tile(spin_diagonal(deltas), spec.dimension // spec.spin_dim)


def protection_check(n_atoms: int, n_modes: int, g: float, m: int,
                     deltas) -> dict[tuple[str, str], complex]:
    """The four matrix elements <G_s| H_pert^m |G_s'> on the asymptotic vacua.

    H_pert is diagonal in the basis, so its m-th power is the elementwise
    power of ``perturbation_diagonal``; no eigensolves.  The vacua come from
    ``ManyBodySpec.from_coupling`` at its default cutoffs.  Keys are
    ('+','+'), ('+','-'), ('-','+'), ('-','-').
    """
    if m < 1:
        raise DisorderError("m must be at least 1")
    spec = ManyBodySpec.from_coupling(n_atoms, n_modes, g)
    power = perturbation_diagonal(spec, deltas) ** m
    states = {"+": asymptotic_vacuum(spec, +1), "-": asymptotic_vacuum(spec, -1)}
    return {(bra, ket): complex(np.vdot(states[bra].data, power * states[ket].data))
            for bra in states for ket in states}

"""Ensemble studies of site-dependent atomic-frequency disorder.

Frequencies are drawn as wF_j = wF (1 + amplitude * xi_j) with standard
normal xi from a per-realization child generator (PCG64 seeded with
[seed, realization]), so realizations are independent of execution order and
worker count.  Negative samples are kept; the Hamiltonian stays Hermitian and
the analytic estimator applies its product formula verbatim (signed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import analytic_splitting_general, displaced_amplitudes, x_polarized
from .manybody import ManyBodySpec, ground_splittings, spin_diagonal


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
        if not 0 <= self.amplitude < math.inf:
            raise DisorderError(f"amplitude must be finite and non-negative, "
                                f"got {self.amplitude}")
        if self.count < 1:
            raise DisorderError("count must be at least 1")
        if self.seed < 0:
            raise DisorderError(f"seed must be non-negative, got {self.seed}")


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


def ensemble_splitting(spec: DisorderEnsembleSpec, engine: str = "exact") -> np.ndarray:
    """Splitting of each realization, in realization order.

    Realization r has the atomic frequencies of row r of
    ``sample_frequencies(spec)``.  engine='exact' returns the deltas of
    ``ground_splittings`` over every realization at the base cutoffs
    without refinement, refused as ``sector_spectra`` refuses a sector too
    large to solve; its stacked sector solves leave each realization's bits
    as a lone solve gives them.
    engine='analytic' evaluates the dominant-order closed form on every row
    at once; its per-realization value is signed.
    """
    if engine not in ("exact", "analytic"):
        raise DisorderError("engine must be 'exact' or 'analytic'")
    base = spec.base
    freqs = sample_frequencies(spec)
    if engine == "analytic":
        return analytic_splitting_general(base.n_atoms, base.n_modes, base.g, freqs,
                                          base.omega_modes[0])
    records = ground_splittings([base.with_omega_atoms(w) for w in freqs], refine=False)
    return np.array([r.delta for r in records])


def protection_check(n_atoms: int, n_modes: int, g: float, m: int,
                     deltas) -> dict[tuple[str, str], complex]:
    """The four matrix elements <G_s| H_pert^m |G_s'> on the asymptotic vacua,
    H_pert = sum_j (Delta_j / 2) sz_j.

    Each vacuum is a coherent state per mode times x-polarized spins, and
    H_pert acts on the spins alone, so an element is the untruncated
    coherent overlap prod_k exp(-|a_k|^2/2 - |b_k|^2/2 + conj(a_k) b_k)
    times the spin moment <x_s| ``spin_diagonal(deltas)`` ^m |x_s'> over
    the 2^N patterns.  Exact at every coupling: no Fock space is built, so
    no cutoff truncates the order-N cross elements.  Keys are ('+','+'),
    ('+','-'), ('-','+'), ('-','-').
    """
    if m < 1:
        raise DisorderError("m must be at least 1")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n_atoms,):
        raise DisorderError("need one Delta per atom")
    # amplitudes do not depend on the cutoffs, so the least ones will do
    spec = ManyBodySpec.from_coupling(n_atoms, n_modes, g, cutoffs=(1,) * n_modes)
    power = spin_diagonal(deltas) ** m
    vacua = {s: (displaced_amplitudes(spec, [sign] * n_atoms), x_polarized(n_atoms, sign))
             for s, sign in (("+", +1), ("-", -1))}
    return {(bra, ket): complex(
                np.exp(np.sum(-np.abs(a) ** 2 / 2 - np.abs(b) ** 2 / 2 + a.conj() * b))
                * np.vdot(x_a, power * x_b))
            for bra, (a, x_a) in vacua.items() for ket, (b, x_b) in vacua.items()}

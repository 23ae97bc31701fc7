"""Closed-form ultrastrong-coupling results.

Deep in the coupled regime the chain Hamiltonian minus the atomic term is
diagonal in pseudospin configurations (each atom pinned along sx), and every
configuration drags its modes into coherent states.  The two ferromagnetic
configurations minimize the displacement energy; their product states are the
asymptotic vacua.  This module holds those states as their two factors (a
coherent state per mode and x-polarized spins), the fidelity of the exact
ground doublet with them, the configuration-energy minimizer, the analytic
splitting formulas and the quadratic-in-N exponent of the splitting decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .manybody import (
    SECTORS,
    BasisIndexer,
    ManyBodyError,
    ManyBodySpec,
    Wavefunction,
    collective_rabi_ratios,
    spatial_weights,
)

#: least retained squared mass of each truncated coherent mode state
MIN_MASS = 0.999


class CutoffError(ValueError):
    """A mode cutoff is too small to hold its coherent state."""

    def __init__(self, mode: int, cutoff: int, required: int):
        super().__init__(
            f"mode {mode}: cutoff {cutoff} keeps less than the required "
            f"coherent-state mass, need at least {required}"
        )
        self.mode = mode
        self.required = required


def coherent_amplitudes(n_atoms: int, n_modes: int, g: float) -> np.ndarray:
    """Per-mode coherent amplitudes of the + vacuum, in the continuum
    closed form.

    alpha_k = g sqrt(2) i^k / (k^1.5 sin(pi/2N)) for odd k, exactly zero for
    even k (their spatial weights sum to zero over a uniform configuration).
    The closed form keeps the continuum normalization at the zone boundary:
    at odd N with N_m = N its entry k = N is sqrt(2) above the vacuum's own
    amplitude, ``displaced_amplitudes`` (0.5443 against 0.3849 at N = 3,
    g = 1).  ``choose_cutoffs`` sizes that mode from this larger value.
    At N = 1, where sin(pi/2N) = 1, the one mode is that zone boundary.
    """
    if not 1 <= n_modes <= n_atoms:
        raise ManyBodyError("need 1 <= n_modes <= n_atoms")
    if not 0 <= g < math.inf:
        raise ManyBodyError(f"g must be finite and non-negative, got {g}")
    s = math.sin(math.pi / (2.0 * n_atoms))
    out = np.zeros(n_modes, dtype=complex)
    for k in range(1, n_modes + 1):
        if k % 2 == 1:
            out[k - 1] = g * math.sqrt(2.0) * (1j**k) / (k**1.5 * s)
    return out


def displaced_amplitudes(spec: ManyBodySpec, signs) -> np.ndarray:
    """Coherent amplitudes i (W_k / w_k) psi_k for a pseudospin configuration.

    ``signs`` is one +-1 per atom.  For the uniform + configuration of a
    ``from_coupling`` spec this reproduces ``coherent_amplitudes`` for every
    mode below the zone boundary.
    """
    mu = np.asarray(signs, dtype=float)
    if mu.shape != (spec.n_atoms,) or np.any(np.abs(mu) != 1.0):
        raise ManyBodyError("signs must be +-1 per atom")
    w = np.array(spec.weights)
    psi = math.sqrt(2.0 / spec.n_atoms) * (w @ mu)
    return 1j * np.array(spec.rabi) / np.array(spec.omega_modes) * psi


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock coefficients of |alpha> truncated at n = cutoff (not renormalized).

    The retained squared mass is the Poisson tail sum; callers renormalize.
    """
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))
    if alpha == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - 0.5 * log_fact
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag) * phase


def _required_cutoff(alpha: complex) -> int:
    """The least cutoff whose truncated |alpha> keeps ``MIN_MASS``."""
    # below the Poisson median (at least |alpha|^2 - ln 2) the kept mass is
    # under one half, so the scan may start just short of |alpha|^2
    c = max(0, int(abs(alpha) ** 2) - 1)
    while np.sum(np.abs(coherent_vector(alpha, c)) ** 2) < MIN_MASS:
        c += 1
    return c


def x_polarized(n_atoms: int, sign: int) -> np.ndarray:
    """Spin amplitudes <bits|prod_j (|1> + sign |0>) / sqrt(2) over the 2^N
    bit patterns: every atom along ``sign`` on the x axis."""
    out = np.ones(1)
    for _ in range(n_atoms):  # atoms alike, so their order does not matter
        out = np.kron([float(sign), 1.0], out)
    return out / math.sqrt(out.size)


def truncated_factors(spec: ManyBodySpec, sign: int) -> tuple[np.ndarray, np.ndarray, list]:
    """``vacuum_factors`` without its mass check, and the squared mass that
    each mode's truncated coherent state keeps.

    A mode whose squared mass underflows to zero (|alpha|^2 in the
    thousands above its cutoff) stays unnormalized, so the mode factor is
    never non-finite.  ``manybody.ground_splittings`` starts its solves from
    these factors, where no accuracy is needed.
    """
    if sign not in (+1, -1):
        raise ManyBodyError("sign must be +1 or -1")
    modes, masses = np.ones(1, dtype=complex), []
    for alpha, cutoff in zip(displaced_amplitudes(spec, [sign] * spec.n_atoms), spec.cutoffs):
        vec = coherent_vector(alpha, cutoff)
        masses.append(float(np.sum(np.abs(vec) ** 2)))
        if masses[-1] > 0.0:
            vec = vec / math.sqrt(masses[-1])
        modes = np.multiply.outer(vec, modes).reshape(-1)
    return modes, x_polarized(spec.n_atoms, sign), masses


def vacuum_factors(spec: ManyBodySpec, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the asymptotic vacuum on the spec's basis.

    Returns the mode factor over occupation patterns (mode 1 fastest), a
    product of one coherent state per mode truncated at that mode's cutoff
    and renormalized, and the 2^N spin factor ``x_polarized``.  The vacuum's
    amplitude at full index f 2^N + s is modes[f] spin[s].  Raises
    ``CutoffError`` (with the needed cutoff) if any truncated mode keeps
    less than ``MIN_MASS`` of its weight.
    """
    modes, spin, masses = truncated_factors(spec, sign)
    for m, mass in enumerate(masses):
        if mass < MIN_MASS:
            alpha = displaced_amplitudes(spec, [sign] * spec.n_atoms)[m]
            raise CutoffError(m + 1, spec.cutoffs[m], _required_cutoff(alpha))
    return modes, spin


def asymptotic_vacuum(spec: ManyBodySpec, sign: int = +1) -> Wavefunction:
    """Product-state vacuum on the full space: the outer product of
    ``vacuum_factors``.  The package takes every overlap from the factors;
    this full-space vector serves the benchmark and tests."""
    modes, spin = vacuum_factors(spec, sign)
    return Wavefunction(BasisIndexer(spec, "full"), np.multiply.outer(modes, spin).reshape(-1))


@dataclass(frozen=True)
class OverlapResult:
    cosines: tuple[float, float]
    fidelity: float


def subspace_overlap(pair_a, pair_b) -> OverlapResult:
    """Two-dimensional subspace fidelity, basis independent.

    The cosines of the principal angles between span(pair_a) and span(pair_b)
    are the singular values of the overlap matrix between orthonormalized
    pairs; the combined fidelity is their product.  Invariant under any
    unitary remixing within either pair.
    """
    mats = []
    for pair in (pair_a, pair_b):
        cols = np.column_stack([w.data for w in pair])
        q, r = np.linalg.qr(cols)
        if np.min(np.abs(np.diag(r))) < 1e-12 * max(1.0, float(np.abs(r[0, 0]))):
            raise ManyBodyError("rank-deficient state pair")
        mats.append(q)
    sv = np.linalg.svd(mats[0].conj().T @ mats[1], compute_uv=False)
    sv = np.clip(sv, 0.0, 1.0)
    return OverlapResult(cosines=(float(sv[0]), float(sv[1])),
                         fidelity=float(sv[0] * sv[1]))


def doublet_overlap(pair) -> OverlapResult:
    """``subspace_overlap`` of an (even, odd) pair of sector states of one
    spec with the two asymptotic vacua, from one overlap per sector.

    Parity maps V+ to V-, so span{V+, V-} = span{V+_even, V+_odd}, the
    sector parts of V+.  Sectors are orthogonal, so the principal cosines
    are |<psi_s|V+_s>| / (||psi_s|| ||V+_s||), one per sector.  V+_s is the
    ``BasisIndexer.product`` of the sector with ``vacuum_factors``, so no
    vector leaves its sector.
    """
    indexers = [wf.indexer for wf in pair]
    if (tuple(idx.sector for idx in indexers) != SECTORS
            or indexers[0].spec != indexers[1].spec):
        raise ManyBodyError("need the even and the odd state of one spec")
    modes, spin = vacuum_factors(indexers[0].spec, +1)
    cos = []
    for wf, idx in zip(pair, indexers):
        part = idx.product(modes, spin)
        cos.append(abs(np.vdot(wf.data, part))
                   / (np.linalg.norm(wf.data) * np.linalg.norm(part)))
    hi, lo = np.clip(sorted(cos, reverse=True), 0.0, 1.0)
    return OverlapResult(cosines=(float(hi), float(lo)), fidelity=float(hi * lo))


def configuration_energies(n_atoms: int, n_modes: int, g: float = 1.0):
    """Displacement energy -2 g^2 mu^T Q mu of every pseudospin configuration.

    Energies are in units of the mode-1 frequency w_1, on the standard chain:
    Q(j, j') = sum_k f_k(j) [(W_k/W_1)^2 / k] f_k(j') with the weights of
    ``spatial_weights`` and the ratios of ``collective_rabi_ratios``.
    Returns the array of 2^N energies and the matching sign matrix (one row
    per configuration).
    """
    if n_atoms > 20:
        raise ManyBodyError("brute force over 2^N capped at N = 20")
    w = np.array(spatial_weights(n_atoms, n_modes), dtype=float)
    r = collective_rabi_ratios(n_atoms, n_modes)
    q = (w * (r**2 / np.arange(1, n_modes + 1))[:, None]).T @ w

    signs = np.array(list(product((1.0, -1.0), repeat=n_atoms)))
    quad = np.einsum("cj,jk,ck->c", signs, q, signs)
    return -2.0 * g * g * quad, signs.astype(int)


def minimize_pseudospin_config(n_atoms: int, n_modes: int, g: float = 1.0):
    """All global minimizers of the configuration energy, plus that energy.

    Configurations within 1e-12 of the energy span of the minimum count as
    minimizers.
    """
    energies, signs = configuration_energies(n_atoms, n_modes, g)
    e_min = float(np.min(energies))
    span = float(np.max(energies) - e_min) or 1.0
    winners = np.flatnonzero(energies <= e_min + 1e-12 * span)
    return [tuple(signs[i]) for i in winners], e_min


def analytic_splitting_n2(omega_atom: float, omega_mode: float, g: float) -> float:
    """Closed-form two-atom splitting (w_F^2 / 2 w_1) sqrt(pi/2g^2) e^(-8 g^2).

    Valid asymptotically for strong coupling; singular at g = 0, which is
    rejected.
    """
    if g <= 0:
        raise ManyBodyError("closed form requires g > 0")
    return (
        omega_atom**2 / (2.0 * omega_mode)
        * math.sqrt(math.pi / (2.0 * g * g))
        * math.exp(-8.0 * g * g)
    )


def beta_exponent(n_atoms: int, n_modes: int) -> float:
    """Decay exponent of the splitting: (4/sin^2(pi/2N)) sum_odd k<=N_m k^-3.

    Only displaced (odd) modes contribute an overlap factor, which is what
    makes the two-atom value exactly 8.  The result lies inside
    (1.6 N^2, 2.1 N^2) for every chain.
    """
    if n_atoms < 2:
        raise ManyBodyError("need at least two atoms")
    if not 1 <= n_modes <= n_atoms:
        raise ManyBodyError("need 1 <= n_modes <= n_atoms")
    s2 = math.sin(math.pi / (2.0 * n_atoms)) ** 2
    return 4.0 / s2 * sum(1.0 / k**3 for k in range(1, n_modes + 1, 2))


def analytic_splitting_general(n_atoms: int, n_modes: int, g: float,
                               omega_atoms, omega_mode: float) -> float:
    """Dominant-order splitting estimate for any N.

    2 w_1 N! prod_j (wF_j / 2 w_1) exp(-beta g^2); keeps only the exponential
    order, so it is linear in every atomic frequency and signed when
    frequencies are (products of atomic frequencies are applied verbatim,
    negative samples included).  ``omega_atoms`` of shape ``(count, N)``
    gives one estimate per row, each equal to the call on that row alone.
    """
    omega_atoms = np.asarray(omega_atoms, dtype=float)
    if omega_atoms.shape[-1:] != (n_atoms,) or omega_atoms.ndim > 2:
        raise ManyBodyError("omega_atoms must have one entry per atom")
    pref = 2.0 * omega_mode * math.factorial(n_atoms)
    pref = pref * np.prod(omega_atoms / (2.0 * omega_mode), axis=-1)
    out = pref * math.exp(-beta_exponent(n_atoms, n_modes) * g * g)
    return float(out) if omega_atoms.ndim == 1 else out

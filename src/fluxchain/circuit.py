"""Lumped-element reduction of the coupled atom-resonator chain.

A unit cell consists of a resonator segment (inductance per length ``l_r``,
capacitance per length ``c_r``, cell length ``a``) galvanically loaded by a
two-inductor branch (``L1`` shared with the line, ``L2`` in series with the
junction).  Eliminating the internal node turns the chain into a renormalized
transmission line plus one inductive-energy term, one junction term and one
bilinear flux-flux coupling per cell.

All derived energies are returned as angular frequencies (rad/s, hbar = 1);
the conversion from joules happens here and nowhere else.  Downstream modules
only ever consume ratios, so the choice of rad/s versus angular GHz is
cosmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: elementary charge and Planck constant, exact in the 2019 SI
E_CHARGE = 1.602176634e-19
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)

#: reduced flux quantum, hbar / 2e
PHI0_REDUCED = HBAR / (2.0 * E_CHARGE)

#: resistance quantum h / e^2, about 25.813 kOhm
R_QUANTUM = H_PLANCK / E_CHARGE**2

#: conventional transmission-line impedance
Z_LINE_DEFAULT = 50.0


class CircuitError(ValueError):
    """Raised for out-of-domain circuit parameters."""


@dataclass(frozen=True)
class RawCircuit:
    """Physical lumped-element values of one cell and the chain geometry.

    ``E_J`` and ``E_CJ`` are the junction energies in joules; they ride along
    so a single object describes the full cell.  The resonator length is
    always ``d = N * a``.
    """

    L1: float
    L2: float
    l_r: float
    c_r: float
    a: float
    N: int
    E_J: float
    E_CJ: float

    def __post_init__(self):
        for name in ("L1", "L2", "l_r", "c_r", "a", "E_J", "E_CJ"):
            if getattr(self, name) <= 0.0:
                raise CircuitError(f"{name} must be strictly positive")
        if self.N < 1:
            raise CircuitError("N must be at least 1")

    @property
    def L_r(self) -> float:
        """Per-cell resonator inductance a * l_r."""
        return self.a * self.l_r

    @property
    def C_r(self) -> float:
        """Per-cell resonator capacitance a * c_r."""
        return self.a * self.c_r

    @property
    def d(self) -> float:
        """Resonator length."""
        return self.N * self.a


@dataclass(frozen=True)
class DerivedConstants:
    """Effective energy constants of the reduced cell Hamiltonian.

    ``E_Lr``, ``E_LJ``, ``G`` and ``E_Cr`` are angular frequencies (rad/s);
    ``l_r_renorm`` is an inductance per length (H/m); ``chi`` is the
    dimensionless branching ratio in (0, 1].
    """

    E_Lr: float
    E_LJ: float
    G: float
    E_Cr: float
    l_r_renorm: float
    chi: float


def derive_constants(raw: RawCircuit) -> DerivedConstants:
    """Reduce lumped-element values to the effective Hamiltonian constants.

    With D = L1*Lr + L1*L2 + L2*Lr (Lr = a*l_r) the inductive energies are
    (hbar/2e)^2 (L1+L2)/D, (hbar/2e)^2 (L1+Lr)/D and the coupling magnitude
    (hbar/2e)^2 L1/D; the charging energy is e^2/(2 C_r).  Joule values are
    divided by hbar on the way out.
    """
    L1, L2, Lr = raw.L1, raw.L2, raw.L_r
    den = L1 * Lr + L1 * L2 + L2 * Lr
    phi2 = PHI0_REDUCED**2

    e_lr = phi2 * (L1 + L2) / den / HBAR
    e_lj = phi2 * (L1 + Lr) / den / HBAR
    g_mag = phi2 * L1 / den / HBAR
    e_cr = E_CHARGE**2 / (2.0 * raw.C_r) / HBAR

    l_renorm = raw.l_r * (L1 + L2 + L2 * L1 / (raw.a * raw.l_r)) / (L1 + L2)
    chi = (Lr / den) ** 0.25 * L1 / (L1 + L2) ** 0.75

    return DerivedConstants(
        E_Lr=e_lr, E_LJ=e_lj, G=g_mag, E_Cr=e_cr,
        l_r_renorm=l_renorm, chi=chi,
    )


def _check_mode_index(k: int, n_atoms: int) -> None:
    if not 1 <= k <= n_atoms:
        raise CircuitError(f"mode index k={k} outside 1..{n_atoms}")


def mode_frequency(k: int, c: DerivedConstants, raw: RawCircuit) -> float:
    """Angular frequency of resonator mode k, linear in k.

    omega_k = (k pi a / d) sqrt(8 E_Cr E_Lr) with d = N a, so the dispersion
    is exactly k * omega_1 for the retained modes k = 1..N.
    """
    _check_mode_index(k, raw.N)
    return (k * math.pi * raw.a / raw.d) * math.sqrt(8.0 * c.E_Cr * c.E_Lr)


def vacuum_rabi(k: int, c: DerivedConstants, raw: RawCircuit, phi01: float) -> float:
    """Collective vacuum Rabi frequency of mode k (rad/s).

    For k < N the per-cell flux gradient carries sin(k pi a / 2d); the
    zone-boundary mode k = N has no sine factor and the square root loses its
    factor of two in the denominator.  ``phi01`` is the dimensionless flux
    matrix element of the two-level atom.
    """
    _check_mode_index(k, raw.N)
    if phi01 < 0.0:
        raise CircuitError("phi01 must be non-negative")
    w_k = mode_frequency(k, c, raw)
    g_joule = c.G * HBAR
    if k < raw.N:
        return (
            g_joule * (4.0 * E_CHARGE / HBAR) * phi01
            * math.sin(k * math.pi * raw.a / (2.0 * raw.d))
            * math.sqrt(HBAR * w_k * raw.N / (2.0 * raw.d * raw.c_r))
            / w_k / HBAR
        )
    return (
        g_joule * (4.0 * E_CHARGE / HBAR) * phi01
        * math.sqrt(HBAR * w_k * raw.N / (raw.d * raw.c_r))
        / w_k / HBAR
    )


def finite_size_mu(raw: RawCircuit) -> float:
    """Finite-size factor sin(pi a/2d) / (pi a/2d), never approximated to 1."""
    x = math.pi * raw.a / (2.0 * raw.d)
    return math.sin(x) / x


def coupling_estimate(chi: float, n_atoms: int, mu: float, nu: float) -> float:
    """Dimensionless ratio Omega_1 / omega_1 from impedance bookkeeping.

    Equals sqrt(R_quantum / Z_LINE_DEFAULT) * mu * nu * chi * sqrt(N), for a
    50 Ohm line; with mu = 1, nu = 1/4 and chi = 1 this is about 5.7 per
    sqrt(atom).
    """
    if not 0.0 <= chi <= 1.0:
        raise CircuitError("chi must lie in [0, 1]")
    if n_atoms < 1:
        raise CircuitError("n_atoms must be at least 1")
    return math.sqrt(R_QUANTUM / Z_LINE_DEFAULT) * mu * nu * chi * math.sqrt(n_atoms)

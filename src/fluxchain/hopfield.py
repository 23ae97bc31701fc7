"""Quadratic (bosonized) blocks: polariton branches and the stability edge.

Each resonator mode couples only to the matching collective atomic mode, so
the quadratic Hamiltonian splits into independent 4x4 blocks over
(a, b, a^dag, b^dag).  The block is analyzed through the generator eta * h
(eta = diag[1, 1, -1, -1], h the Hermitian coefficient matrix); its
eigenvalues come in +- pairs and are the two excitation branches.  The lower
branch softens to zero at rabi = sqrt(omega_k * omega_F) / 2 and the normal
vacuum is unstable beyond it.  Edge, determinant and branches are closed
forms; the tests hold them against a bisection on the dense eigenvalues of
``build_matrix`` (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class HopfieldError(ValueError):
    pass


@dataclass(frozen=True)
class HopfieldBlock:
    omega_k: float
    omega_F: float
    rabi: float

    def __post_init__(self):
        if self.omega_k <= 0.0 or self.omega_F <= 0.0:
            raise HopfieldError("mode and atomic frequencies must be positive")
        if self.rabi < 0.0:
            raise HopfieldError("rabi must be non-negative")


@dataclass(frozen=True)
class PolaritonResult:
    """Branch frequencies of one block.

    When unstable, ``lower`` is NaN and ``imag_magnitude`` carries the size of
    the imaginary eigenvalue pair.
    """

    lower: float
    upper: float
    stable: bool
    determinant: float
    imag_magnitude: float = 0.0

    @property
    def frequencies(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def build_matrix(b: HopfieldBlock) -> np.ndarray:
    """4x4 Bogoliubov generator of the block.

    Returned as eta applied to the Hermitian quadratic-form matrix; its
    eigenvalues are the +- excitation frequencies.  The matrix is
    eta-pseudo-Hermitian: M^dag = eta M eta.
    """
    w, wf, c = b.omega_k, b.omega_F, b.rabi
    ic = 1j * c
    return np.array(
        [
            [w, -ic, 0.0, -ic],
            [ic, wf, -ic, 0.0],
            [0.0, -ic, -w, -ic],
            [-ic, 0.0, ic, -wf],
        ],
        dtype=complex,
    )


def determinant(b: HopfieldBlock) -> float:
    """Closed-form determinant omega_k omega_F (omega_k omega_F - 4 rabi^2)
    of ``build_matrix``."""
    return b.omega_k * b.omega_F * (b.omega_k * b.omega_F - 4.0 * b.rabi**2)


def critical_coupling(omega_k: float, omega_F: float) -> float:
    """Coupling at which the lower branch reaches zero."""
    if omega_k <= 0.0 or omega_F <= 0.0:
        raise HopfieldError("frequencies must be positive")
    return math.sqrt(omega_k * omega_F) / 2.0


def polariton_frequencies(b: HopfieldBlock) -> PolaritonResult:
    """Both branch frequencies from the biquadratic characteristic polynomial.

    Below the critical coupling both squared roots are non-negative and the
    branches are returned ascending; above it the lower squared root is
    negative, the block is flagged unstable and the imaginary magnitude is
    reported instead.
    """
    # lambda^4 - (w^2 + wf^2) lambda^2 + det = 0
    det = determinant(b)
    s = b.omega_k**2 + b.omega_F**2
    disc = math.sqrt(max(s * s - 4.0 * det, 0.0))
    lo2, hi2 = (s - disc) / 2.0, (s + disc) / 2.0
    if lo2 >= 0.0:
        return PolaritonResult(
            lower=math.sqrt(lo2), upper=math.sqrt(hi2), stable=True,
            determinant=det,
        )
    return PolaritonResult(
        lower=math.nan, upper=math.sqrt(hi2), stable=False,
        determinant=det, imag_magnitude=math.sqrt(-lo2),
    )


def branch_sweep(omega_k: float, omega_F: float, rabi_grid) -> list[dict]:
    """Rows (rabi, lower, upper, stable, determinant) for mode-softening plots."""
    grid = list(rabi_grid)
    if any(b > a for a, b in zip(grid[1:], grid[:-1])):
        raise HopfieldError("rabi grid must be ascending")
    rows = []
    for c in grid:
        res = polariton_frequencies(HopfieldBlock(omega_k, omega_F, c))
        rows.append(
            {
                "Omega": c,
                "lower": res.lower,
                "upper": res.upper,
                "stable": res.stable,
                "determinant": res.determinant,
            }
        )
    return rows

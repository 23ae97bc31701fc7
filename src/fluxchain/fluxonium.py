"""Single-junction double-well solver in the oscillator basis.

The inductive shunt makes the junction phase an extended variable, and the
Hamiltonian 4 E_CJ N^2 + (E_LJ/2) phi^2 + E_J cos(phi) is the E_J = 0
oscillator of frequency omega = sqrt(8 E_CJ E_LJ) plus the junction term,
so it is solved in that oscillator's basis (Groszkowski & Koch, Quantum 5,
583 (2021)).  There phi = phi0 X with phi0 = (8 E_CJ / E_LJ)^(1/4) and X
the position matrix, sqrt(j/2) beside the diagonal.  The junction term is
built on M = 3/2 ``BASIS_SIZE`` states: with X = V diag(x) V^T there,
E_J cos(phi) is V E_J cos(phi0 x) V^T, a Gauss-Hermite quadrature whose
nodes are the eigenvalues x of X (a discrete variable representation:
Light & Carrington, Adv. Chem. Phys. 114, 263 (2000)).  The levels are
those of its leading ``BASIS_SIZE`` block, one dense ``eigh``, and the
whole M-state matrix checks them.  At E_J/E_CJ/E_LJ = 3/1/0.15 both agree
with a Richardson-extrapolated fine hard-wall grid to about 1e-10 of the
level spread.  The matrix element phi01 is exact in the basis, and so is
the E_J = 0 limit.  The wavefunctions are sampled on an output flux grid
through the Hermite-function recurrence.  The sweet-spot external flux is
already absorbed into the +cos sign, which places the wells near +-pi when
E_J dominates E_LJ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .krylov import solve_threads

#: oscillator states of the level solve; the check solve takes 3/2 as many
BASIS_SIZE = 80
#: relative gap below which two wavefunction peaks count as equally high
SIGN_TIE = 1e-6


class FluxoniumError(ValueError):
    pass


class BasisConvergenceError(RuntimeError):
    """Widening the oscillator basis moved the levels by more than the tolerance."""

    def __init__(self, shift: float, tol: float):
        super().__init__(
            f"level shift {shift:.3e} between basis sizes {BASIS_SIZE} and "
            f"{3 * BASIS_SIZE // 2} exceeds tol {tol:.3e}"
        )
        self.shift = shift
        self.tol = tol


@dataclass(frozen=True)
class FluxoniumSpec:
    """Junction energies plus the flux grid the wavefunctions are given on.

    Energies share one unit (any fixed angular-frequency or energy unit).  The
    grid spans [-grid_half_width, +grid_half_width] with an odd point count so
    phi = 0 sits on a grid point; it does not enter the levels.
    """

    E_J: float
    E_CJ: float
    E_LJ: float
    grid_half_width: float = 6.0 * np.pi
    grid_points: int = 801

    def __post_init__(self):
        # nan fails every comparison, so these chained bounds refuse it too
        if not all(0.0 < e < math.inf for e in (self.E_J, self.E_CJ, self.E_LJ)):
            raise FluxoniumError("E_J, E_CJ, E_LJ must be finite and strictly positive")
        if self.grid_points < 201 or self.grid_points % 2 == 0:
            raise FluxoniumError("grid_points must be odd and at least 201")
        if not 4.0 * np.pi <= self.grid_half_width < math.inf:
            raise FluxoniumError("grid_half_width must be finite and at least 4*pi")


@dataclass(frozen=True)
class FluxoniumLevels:
    """Low-lying eigenpairs and the matrix elements the chain model needs.

    ``wavefunctions[i]`` is sampled on ``phi_grid`` and quadrature-normalized
    there: sum |psi|^2 * dphi = 1, and its highest peak (the leftmost, if
    peaks tie) is positive.  ``basis_shift`` is the worst level movement
    (relative to the level spread) when the basis grows from ``BASIS_SIZE``
    to 3/2 ``BASIS_SIZE`` states.
    """

    energies: np.ndarray
    phi01: float
    omega_F: float
    wavefunctions: np.ndarray
    phi_grid: np.ndarray
    basis_shift: float


@dataclass(frozen=True)
class TwoLevelReduction:
    omega_F: float
    phi01: float
    anharmonicity: float
    two_level_ok: bool


def _hermite_functions(x: np.ndarray, n: int) -> np.ndarray:
    """The first n normalized Hermite functions at the points x, one per row."""
    h = np.empty((n, x.size))
    h[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    h[1] = np.sqrt(2.0) * x * h[0]
    for j in range(1, n - 1):
        h[j + 1] = np.sqrt(2.0 / (j + 1)) * x * h[j] - np.sqrt(j / (j + 1)) * h[j - 1]
    return h


def solve_levels(spec: FluxoniumSpec, n_levels: int = 4,
                 convergence_tol: float = 1e-3) -> FluxoniumLevels:
    """Lowest eigenpairs of the double-well Hamiltonian.

    The levels of the whole 3/2 ``BASIS_SIZE`` state matrix check those of
    its leading block; the relative level shift is reported in the result
    and a ``BasisConvergenceError`` is raised if it exceeds
    ``convergence_tol``.
    """
    if n_levels < 2:
        raise FluxoniumError("need at least two levels")
    if n_levels > BASIS_SIZE:
        raise FluxoniumError(f"n_levels must be at most BASIS_SIZE = {BASIS_SIZE}")

    omega = np.sqrt(8.0 * spec.E_CJ * spec.E_LJ)
    phi0 = (8.0 * spec.E_CJ / spec.E_LJ) ** 0.25
    j = np.arange(3 * BASIS_SIZE // 2)
    x_mat = np.diag(np.sqrt(j[1:] / 2.0), 1)
    x_mat += x_mat.T
    phi = np.linspace(-spec.grid_half_width, spec.grid_half_width, spec.grid_points)
    dphi = phi[1] - phi[0]
    # one BLAS thread, as for every dense solve, so no bit depends on the cores
    with solve_threads(j.size):
        nodes, v = np.linalg.eigh(x_mat)
        h = (v * (spec.E_J * np.cos(phi0 * nodes))) @ v.T
        h[j, j] += omega * (j + 0.5)
        vals, vecs = np.linalg.eigh(h[:BASIS_SIZE, :BASIS_SIZE])
        vals, vecs = vals[:n_levels], vecs[:, :n_levels]
        wide = np.linalg.eigvalsh(h)[:n_levels]
        phi01 = float(phi0 * abs(vecs[:, 0] @ x_mat[:BASIS_SIZE, :BASIS_SIZE] @ vecs[:, 1]))
        psis = vecs.T @ _hermite_functions(phi / phi0, BASIS_SIZE)
    spread = max(vals[-1] - vals[0], abs(vals[-1]), abs(vals[0]))
    shift = float(np.max(np.abs(vals - wide)) / spread)
    if shift > convergence_tol:
        raise BasisConvergenceError(shift, convergence_tol)

    # quadrature normalization and a deterministic sign convention: the
    # largest-magnitude entry is positive, and of entries that tie with it
    # to SIGN_TIE (the two mirror peaks of an odd state in a symmetric
    # potential) the leftmost one, so rounding cannot pick the sign
    psis /= np.sqrt(np.sum(psis**2, axis=1) * dphi)[:, None]
    for psi in psis:
        mag = np.abs(psi)
        m = np.argmax(mag >= (1.0 - SIGN_TIE) * mag.max())
        if psi[m] < 0:
            psi *= -1.0

    return FluxoniumLevels(
        energies=vals,
        phi01=phi01,
        omega_F=float(vals[1] - vals[0]),
        wavefunctions=psis,
        phi_grid=phi,
        basis_shift=shift,
    )


def two_level_reduction(levels: FluxoniumLevels) -> TwoLevelReduction:
    """Project onto the lowest doublet and judge the truncation.

    The anharmonicity diagnostic is (E2-E1)/(E1-E0); below 2 the third level
    sits too close for a faithful two-level description and the flag is
    cleared.  A harmonic spectrum gives exactly 1.
    """
    if len(levels.energies) < 3:
        raise FluxoniumError("two_level_reduction needs at least three levels")
    e0, e1, e2 = levels.energies[:3]
    anh = float((e2 - e1) / (e1 - e0))
    return TwoLevelReduction(
        omega_F=levels.omega_F,
        phi01=levels.phi01,
        anharmonicity=anh,
        two_level_ok=anh >= 2.0,
    )


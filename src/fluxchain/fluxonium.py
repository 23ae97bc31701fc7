"""Single-junction double-well solver on an extended flux grid.

The inductive shunt makes the junction phase an extended variable, so the
Hamiltonian 4 E_CJ N^2 + (E_LJ/2) phi^2 + E_J cos(phi) is discretized on a
uniform grid with hard walls and central second differences for
N = -i d/dphi.  The lowest levels of that tridiagonal matrix T come from
shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1251 (1980)): the
package's own ``krylov.lowest_eigenpairs`` runs on -(T - sigma)^-1, whose
lowest eigenvalues belong to the lowest levels of T and stand far apart
from the rest.  The solve runs on T / E_CJ, so it is the same in any energy
unit, with the shift sigma below that matrix's Gershgorin bound: the shifted
matrix is strictly diagonally dominant and positive definite, and cyclic
reduction solves it stably (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
627 (1970)).  Each returned energy is the Rayleigh quotient of its vector
with T.  The sweet-spot external flux is already absorbed into the +cos
sign, which places the wells near +-pi when E_J dominates E_LJ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krylov import lowest_eigenpairs

#: relative residual at which a shift-invert Lanczos pair is accepted
LANCZOS_TOL = 1e-13
#: cyclic reduction stops halving a grid system at this many rows
REDUCED_SIZE = 64
#: relative gap below which two wavefunction peaks count as equally high
SIGN_TIE = 1e-6


class FluxoniumError(ValueError):
    pass


class GridConvergenceError(RuntimeError):
    """Grid refinement moved the levels by more than the tolerance."""

    def __init__(self, shift: float, tol: float):
        super().__init__(
            f"level shift {shift:.3e} between grid refinements exceeds tol {tol:.3e}"
        )
        self.shift = shift
        self.tol = tol


@dataclass(frozen=True)
class FluxoniumSpec:
    """Junction energies plus the flux-grid layout.

    Energies share one unit (any fixed angular-frequency or energy unit).  The
    grid spans [-grid_half_width, +grid_half_width] with an odd point count so
    phi = 0 sits on a grid point.
    """

    E_J: float
    E_CJ: float
    E_LJ: float
    grid_half_width: float = 6.0 * np.pi
    grid_points: int = 801

    def __post_init__(self):
        if min(self.E_J, self.E_CJ, self.E_LJ) <= 0.0:
            raise FluxoniumError("E_J, E_CJ, E_LJ must be strictly positive")
        if self.grid_points < 201 or self.grid_points % 2 == 0:
            raise FluxoniumError("grid_points must be odd and at least 201")
        if self.grid_half_width < 4.0 * np.pi:
            raise FluxoniumError("grid_half_width must be at least 4*pi")


@dataclass(frozen=True)
class FluxoniumLevels:
    """Low-lying eigenpairs and the matrix elements the chain model needs.

    ``wavefunctions[i]`` is quadrature-normalized: sum |psi|^2 * dphi = 1,
    and its highest peak (the leftmost, if peaks tie) is positive.
    ``grid_shift`` is the worst level movement (relative to the level spread)
    when the grid is refined from M to 2M-1 points.
    """

    energies: np.ndarray
    phi01: float
    omega_F: float
    wavefunctions: np.ndarray
    phi_grid: np.ndarray
    grid_shift: float


@dataclass(frozen=True)
class TwoLevelReduction:
    omega_F: float
    phi01: float
    anharmonicity: float
    two_level_ok: bool


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray):
    """x -> A^-1 x for the diagonally dominant symmetric tridiagonal A with
    ``diag`` on its diagonal and ``off`` beside it.

    Each level of the reduction uses the odd rows to eliminate the odd
    unknowns from the even rows, which halves the system and keeps it
    tridiagonal and diagonally dominant; once it is at most
    ``REDUCED_SIZE`` rows it is inverted densely.  All of this is computed
    here once, so a solve is one vectorized sweep down the levels, one small
    matrix-vector product and one sweep back up.
    """
    levels = []
    a = np.concatenate(([0.0], off))  # coupling of row i to unknown i-1
    b = np.asarray(diag, dtype=float)
    c = np.concatenate((off, [0.0]))  # coupling of row i to unknown i+1
    while b.size > REDUCED_SIZE:
        n_even, n_odd = (b.size + 1) // 2, b.size // 2
        a_odd, b_odd, c_odd = a[1::2], b[1::2], c[1::2]
        # even row j eliminates unknown 2j-1 with odd row j-1 and unknown
        # 2j+1 with odd row j
        left = -a[2::2] / b_odd[: n_even - 1]
        right = -c[0::2][:n_odd] / b_odd
        b = b[0::2].copy()
        b[1:] += left * c_odd[: n_even - 1]
        b[:n_odd] += right * a_odd
        a = np.concatenate(([0.0], left * a_odd[: n_even - 1]))
        c = np.concatenate((right * c_odd, np.zeros(n_even - n_odd)))
        levels.append((left, right, a_odd, b_odd, c_odd))
    reduced = np.linalg.inv(np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1))

    def solve(f: np.ndarray) -> np.ndarray:
        odd_rhs = []
        for left, right, _, _, _ in levels:
            f_odd = f[1::2]
            f = f[0::2].copy()
            f[1:] += left * f_odd[: left.size]
            f[: right.size] += right * f_odd
            odd_rhs.append(f_odd)
        x = reduced @ f
        for (_, _, a_odd, b_odd, c_odd), f_odd in zip(reversed(levels), reversed(odd_rhs)):
            x_odd = f_odd - a_odd * x[: f_odd.size]
            x_odd[: x.size - 1] -= c_odd[: x.size - 1] * x[1:]
            x_odd /= b_odd
            full = np.empty(x.size + x_odd.size)
            full[0::2], full[1::2] = x, x_odd
            x = full
        return x

    return solve


def _grid_eigensolve(spec: FluxoniumSpec, n_levels: int):
    phi = np.linspace(-spec.grid_half_width, spec.grid_half_width, spec.grid_points)
    dphi = phi[1] - phi[0]
    kinetic = 4.0 * spec.E_CJ / dphi**2
    diag = 2.0 * kinetic + 0.5 * spec.E_LJ * phi**2 + spec.E_J * np.cos(phi)
    off = np.full(spec.grid_points - 1, -kinetic)
    # T / E_CJ carries no energy unit, and one below its Gershgorin bound
    # the shifted matrix has every eigenvalue at least 1, so its inverse has
    # norm at most 1 and LANCZOS_TOL is a residual relative to that norm in
    # any unit
    reach = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    sigma = float(np.min((diag - reach) / spec.E_CJ)) - 1.0
    solve = _cyclic_reduction(diag / spec.E_CJ - sigma, off / spec.E_CJ)
    res = lowest_eigenpairs(lambda x: -solve(x), spec.grid_points, n_levels,
                            tol=LANCZOS_TOL, scale=1.0)
    vecs = res.eigenvectors
    t_vecs = diag[:, None] * vecs
    t_vecs[1:] += off[:, None] * vecs[:-1]
    t_vecs[:-1] += off[:, None] * vecs[1:]
    vals = np.einsum("ij,ij->j", vecs, t_vecs)
    return phi, dphi, vals, vecs


def solve_levels(spec: FluxoniumSpec, n_levels: int = 4,
                 convergence_tol: float = 1e-3) -> FluxoniumLevels:
    """Lowest eigenpairs of the double-well Hamiltonian.

    The solve is repeated on a 2M-1 point grid of the same extent; the
    relative level shift is reported in the result and a
    ``GridConvergenceError`` is raised if it exceeds ``convergence_tol``.
    """
    if n_levels < 2:
        raise FluxoniumError("need at least two levels")
    if n_levels >= spec.grid_points:
        raise FluxoniumError("n_levels must be far below grid_points")

    phi, dphi, vals, vecs = _grid_eigensolve(spec, n_levels)

    fine = FluxoniumSpec(
        E_J=spec.E_J, E_CJ=spec.E_CJ, E_LJ=spec.E_LJ,
        grid_half_width=spec.grid_half_width,
        grid_points=2 * spec.grid_points - 1,
    )
    _, _, vals_fine, _ = _grid_eigensolve(fine, n_levels)
    spread = max(vals[-1] - vals[0], abs(vals[-1]), abs(vals[0]))
    shift = float(np.max(np.abs(vals - vals_fine)) / spread)
    if shift > convergence_tol:
        raise GridConvergenceError(shift, convergence_tol)

    # quadrature normalization and a deterministic sign convention: the
    # largest-magnitude entry is positive, and of entries that tie with it
    # to SIGN_TIE (the two mirror peaks of an odd state in a symmetric
    # potential) the leftmost one, so rounding cannot pick the sign
    psis = vecs.T / np.sqrt(dphi)
    for psi in psis:
        mag = np.abs(psi)
        m = np.argmax(mag >= (1.0 - SIGN_TIE) * mag.max())
        if psi[m] < 0:
            psi *= -1.0

    phi01 = float(abs(np.sum(psis[0] * phi * psis[1]) * dphi))
    omega_f = float(vals[1] - vals[0])

    return FluxoniumLevels(
        energies=vals,
        phi01=phi01,
        omega_F=omega_f,
        wavefunctions=psis,
        phi_grid=phi,
        grid_shift=shift,
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


def harmonic_reference(e_cj: float, e_lj: float) -> tuple[float, float]:
    """(omega, phi01) of the E_J = 0 oscillator limit, handy for checks."""
    omega = np.sqrt(8.0 * e_cj * e_lj)
    phi01 = 2.0**0.25 * (e_cj / e_lj) ** 0.25
    return float(omega), float(phi01)

import functools

import numpy as np
import pytest
from scipy.linalg import cosm, eigh_tridiagonal

from fluxchain.fluxonium import (
    BasisConvergenceError,
    FluxoniumError,
    FluxoniumSpec,
    solve_levels,
    two_level_reduction,
)

from oracles import harmonic_reference

# double-well point used throughout: E_J/E_CJ = 3, E_J/E_LJ = 20
WELL = dict(E_J=3.0, E_CJ=1.0, E_LJ=0.15)


def oscillator_spec(**kw):
    # numerically negligible junction term keeps the validator happy
    return FluxoniumSpec(E_J=1e-30, E_CJ=1.0, E_LJ=0.15, **kw)


def test_spec_validation():
    with pytest.raises(FluxoniumError):
        FluxoniumSpec(E_J=-1, E_CJ=1, E_LJ=1)
    with pytest.raises(FluxoniumError):
        FluxoniumSpec(E_J=1, E_CJ=1, E_LJ=1, grid_points=800)  # even
    with pytest.raises(FluxoniumError):
        FluxoniumSpec(E_J=1, E_CJ=1, E_LJ=1, grid_points=101)
    with pytest.raises(FluxoniumError):
        FluxoniumSpec(E_J=1, E_CJ=1, E_LJ=1, grid_half_width=np.pi)
    for bad in (dict(E_J=np.nan), dict(E_LJ=np.inf), dict(grid_half_width=np.nan),
                dict(grid_half_width=np.inf)):
        with pytest.raises(FluxoniumError):
            FluxoniumSpec(**{**dict(E_J=1, E_CJ=1, E_LJ=1), **bad})


def test_oscillator_limit_matches_closed_forms():
    spec = oscillator_spec(grid_points=6001, grid_half_width=4 * np.pi)
    lv = solve_levels(spec, n_levels=3, convergence_tol=1e-5)
    w_ref, p_ref = harmonic_reference(1.0, 0.15)
    assert lv.omega_F == pytest.approx(w_ref, rel=1e-6)
    assert lv.phi01 == pytest.approx(p_ref, rel=1e-6)


def test_oscillator_levels_equally_spaced():
    lv = solve_levels(oscillator_spec(), n_levels=4)
    gaps = np.diff(lv.energies)
    assert np.allclose(gaps, gaps[0], rtol=1e-4)


def test_double_well_phi01_near_pi_and_anharmonic():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=4)
    assert abs(lv.phi01 - np.pi) / np.pi < 0.10
    red = two_level_reduction(lv)
    assert red.two_level_ok
    assert red.anharmonicity > 2.0


def test_harmonic_case_flags_two_level_breakdown():
    red = two_level_reduction(solve_levels(oscillator_spec(), n_levels=4))
    assert red.anharmonicity == pytest.approx(1.0, abs=1e-4)
    assert not red.two_level_ok


def test_symmetric_potential_has_no_diagonal_flux():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=2)
    dphi = lv.phi_grid[1] - lv.phi_grid[0]
    elem = abs(np.sum(lv.wavefunctions[0] * lv.phi_grid * lv.wavefunctions[0]) * dphi)
    assert elem < 1e-8


def test_wavefunction_quadrature_norms():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=3)
    dphi = lv.phi_grid[1] - lv.phi_grid[0]
    for psi in lv.wavefunctions:
        assert np.sum(np.abs(psi) ** 2) * dphi == pytest.approx(1.0, abs=1e-12)


def test_grid_solver_matches_oscillator_basis_oracle():
    # independent dense diagonalization in a 60-level oscillator basis, with
    # the junction term the matrix cosine of the truncated phase operator
    nb = 60
    w0 = np.sqrt(8 * WELL["E_CJ"] * WELL["E_LJ"])
    pz = np.sqrt(4 * WELL["E_CJ"] / w0)
    a = np.diag(np.sqrt(np.arange(1.0, nb)), 1)
    h = w0 * (np.diag(np.arange(nb)) + 0.5 * np.eye(nb)) + WELL["E_J"] * cosm(
        pz * (a + a.T)
    )
    oracle = np.linalg.eigvalsh(h)[:4]

    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=4, convergence_tol=1e-5)
    spread = oracle[-1] - oracle[0]
    assert np.max(np.abs(lv.energies - oracle)) < 1e-6 * spread


def test_widening_grid_at_fixed_spacing_is_inert():
    # doubling the extent while keeping the spacing leaves omega_F in place
    lv1 = solve_levels(
        FluxoniumSpec(**WELL, grid_points=2401, grid_half_width=4 * np.pi),
        n_levels=2,
    )
    lv2 = solve_levels(
        FluxoniumSpec(**WELL, grid_points=4801, grid_half_width=8 * np.pi),
        n_levels=2,
    )
    assert lv2.omega_F == pytest.approx(lv1.omega_F, rel=1e-8)


def test_phi01_decreases_toward_oscillator_value_as_ej_shrinks():
    p_ref = harmonic_reference(1.0, 0.15)[1]
    vals = []
    for ej in (3.0, 1.0, 0.3, 0.1, 1e-3):
        lv = solve_levels(FluxoniumSpec(E_J=ej, E_CJ=1.0, E_LJ=0.15), n_levels=2)
        vals.append(lv.phi01)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(p_ref, rel=1e-3)


def test_convergence_reported_and_enforced():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=3)
    assert 0 < lv.basis_shift < 1e-3
    with pytest.raises(BasisConvergenceError):
        solve_levels(FluxoniumSpec(**WELL), n_levels=3, convergence_tol=lv.basis_shift / 2)


def test_two_level_reduction_needs_three_levels():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=2)
    with pytest.raises(FluxoniumError):
        two_level_reduction(lv)


# junction energies and the hard-wall half width of their grid reference
JUNCTIONS = {
    "double-well": (WELL, 6 * np.pi),
    "shallow-well": (dict(E_J=1.0, E_CJ=1.0, E_LJ=0.15), 6 * np.pi),
    "oscillator": (dict(E_J=1e-30, E_CJ=1.0, E_LJ=0.15), 6 * np.pi),
    "stiff-well": (dict(E_J=8.0, E_CJ=1.0, E_LJ=0.3), 6 * np.pi),
    "single-well": (dict(E_J=1.0, E_CJ=1.0, E_LJ=1.0), 6 * np.pi),
    "many-wells": (dict(E_J=20.0, E_CJ=1.0, E_LJ=0.1), 6 * np.pi),
    # a light inductance spreads the states out to the 6*pi wall
    "wide-wells": (dict(E_J=3.0, E_CJ=2.0, E_LJ=0.05), 10 * np.pi),
}


def _grid_levels(energies, half_width, points, n_levels):
    """Lowest levels and quadrature-normalized states of the hard-wall
    central-difference grid, from LAPACK's tridiagonal solver."""
    phi = np.linspace(-half_width, half_width, points)
    dphi = phi[1] - phi[0]
    kinetic = 4.0 * energies["E_CJ"] / dphi**2
    diag = 2.0 * kinetic + 0.5 * energies["E_LJ"] * phi**2 + energies["E_J"] * np.cos(phi)
    vals, vecs = eigh_tridiagonal(diag, np.full(points - 1, -kinetic),
                                  select="i", select_range=(0, n_levels - 1))
    return vals, vecs.T / np.sqrt(dphi)


@functools.cache
def _reference(junction):
    """Six levels Richardson-extrapolated from the 12801- and 25601-point
    grids (their error goes as the squared spacing), and the states of the
    12801-point grid."""
    energies, half_width = JUNCTIONS[junction]
    coarse, psis = _grid_levels(energies, half_width, 12801, 6)
    fine, _ = _grid_levels(energies, half_width, 25601, 6)
    return (4.0 * fine - coarse) / 3.0, psis


@pytest.mark.parametrize("junction", list(JUNCTIONS))
@pytest.mark.parametrize("points", [201, 801, 1601])
def test_levels_match_lapack_tridiagonal_oracle(junction, points):
    # the levels are off the reference by at most twice the reported basis
    # shift; the states are sampled on an output grid whose every node is a
    # node of the reference grid
    energies, half_width = JUNCTIONS[junction]
    ref_vals, ref_psis = _reference(junction)
    spec = FluxoniumSpec(**energies, grid_half_width=half_width, grid_points=points)
    for n_levels in range(2, 7):
        lv = solve_levels(spec, n_levels=n_levels, convergence_tol=1.0)
        ref = ref_vals[:n_levels]
        spread = max(ref[-1] - ref[0], abs(ref[-1]), abs(ref[0]))
        assert np.max(np.abs(lv.energies - ref)) <= (2 * lv.basis_shift + 1e-8) * spread
    # the two states the CLI writes: a variational state is off by about the
    # square root of its relative level error, and the grid's by about 1e-6.
    # Signs are matched by overlap, since the mirror peaks of a reference odd
    # state need not tie to SIGN_TIE; the sign rule has its own test
    psis = ref_psis[:2, :: 12800 // (points - 1)]
    psis = psis * np.sign(np.sum(psis * lv.wavefunctions[:2], axis=1))[:, None]
    assert np.max(np.abs(lv.wavefunctions[:2] - psis)) < np.sqrt(lv.basis_shift) + 1e-5


def test_odd_state_sign_is_fixed_by_its_left_peak():
    # in the symmetric double well psi1 is odd: its two peaks tie, and the
    # left one is positive whatever rounding does to their magnitudes
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=2)
    psi1 = lv.wavefunctions[1]
    assert np.allclose(psi1, -psi1[::-1], atol=1e-8)
    left = np.argmax(np.abs(psi1[: psi1.size // 2]))
    assert psi1[left] > 0


@pytest.mark.parametrize("unit", [1e10, 1e-24], ids=["rad/s", "joule"])
@pytest.mark.parametrize("energies", [WELL, dict(E_J=1.0, E_CJ=1.0, E_LJ=0.15)],
                         ids=["double-well", "shallow-well"])
def test_levels_scale_with_the_energy_unit(energies, unit):
    # the same junction in another energy unit: energies scale, states do not
    ref = solve_levels(FluxoniumSpec(**energies), n_levels=4)
    lv = solve_levels(FluxoniumSpec(**{k: unit * v for k, v in energies.items()}), n_levels=4)
    assert np.max(np.abs(lv.energies / unit - ref.energies)) < 1e-10 * np.max(np.abs(ref.energies))
    assert lv.omega_F / unit == pytest.approx(ref.omega_F, rel=1e-10)
    assert lv.phi01 == pytest.approx(ref.phi01, rel=1e-10)
    # the shift is the basis error, about 1e-10, so only rounding can differ
    assert lv.basis_shift == pytest.approx(ref.basis_shift, abs=1e-12)
    assert np.max(np.abs(lv.wavefunctions - ref.wavefunctions)) < 1e-8

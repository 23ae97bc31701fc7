import numpy as np
import pytest
from scipy.linalg import cosm, eigh_tridiagonal

from fluxchain.fluxonium import (
    REDUCED_SIZE,
    FluxoniumError,
    FluxoniumSpec,
    GridConvergenceError,
    _cyclic_reduction,
    harmonic_reference,
    solve_levels,
    two_level_reduction,
)

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
    # independent dense diagonalization in a 60-level oscillator basis
    nb = 60
    w0 = np.sqrt(8 * WELL["E_CJ"] * WELL["E_LJ"])
    pz = np.sqrt(4 * WELL["E_CJ"] / w0)
    a = np.diag(np.sqrt(np.arange(1.0, nb)), 1)
    h = w0 * (np.diag(np.arange(nb)) + 0.5 * np.eye(nb)) + WELL["E_J"] * cosm(
        pz * (a + a.T)
    )
    oracle = np.linalg.eigvalsh(h)[:4]

    lv = solve_levels(
        FluxoniumSpec(**WELL, grid_points=10861, grid_half_width=6 * np.pi),
        n_levels=4, convergence_tol=1e-5,
    )
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
    assert 0 <= lv.grid_shift < 1e-3
    with pytest.raises(GridConvergenceError):
        solve_levels(FluxoniumSpec(**WELL), n_levels=3, convergence_tol=1e-9)


def test_two_level_reduction_needs_three_levels():
    lv = solve_levels(FluxoniumSpec(**WELL), n_levels=2)
    with pytest.raises(FluxoniumError):
        two_level_reduction(lv)


@pytest.mark.parametrize("size", [2, 3, REDUCED_SIZE, REDUCED_SIZE + 1, 2 * REDUCED_SIZE + 3, 801])
def test_cyclic_reduction_matches_dense_solve(size):
    rng = np.random.default_rng(size)
    # weakly diagonally dominant, like a fine flux grid
    off = rng.choice([-1.0, 1.0], size - 1) * rng.uniform(0.5, 1.0, size - 1)
    reach = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    diag = reach + rng.uniform(0.01, 0.5, size)
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    f = rng.standard_normal(size)
    x = _cyclic_reduction(diag, off)(f)
    assert np.max(np.abs(x - np.linalg.solve(a, f))) < 1e-12 * np.max(np.abs(x))


def _oracle_levels(spec, n_levels):
    """Lowest levels of the same grid from LAPACK's tridiagonal solver, with
    the documented normalization and sign convention."""
    phi = np.linspace(-spec.grid_half_width, spec.grid_half_width, spec.grid_points)
    dphi = phi[1] - phi[0]
    kinetic = 4.0 * spec.E_CJ / dphi**2
    diag = 2.0 * kinetic + 0.5 * spec.E_LJ * phi**2 + spec.E_J * np.cos(phi)
    off = np.full(spec.grid_points - 1, -kinetic)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    psis = vecs.T / np.sqrt(dphi)
    for psi in psis:
        mag = np.abs(psi)
        if psi[np.argmax(mag >= (1.0 - 1e-6) * mag.max())] < 0:
            psi *= -1.0
    return vals, psis


@pytest.mark.parametrize("energies", [WELL, dict(E_J=1.0, E_CJ=1.0, E_LJ=0.15),
                                      dict(E_J=1e-30, E_CJ=1.0, E_LJ=0.15)],
                         ids=["double-well", "shallow-well", "oscillator"])
@pytest.mark.parametrize("points", [201, 801, 1601])
def test_levels_match_lapack_tridiagonal_oracle(energies, points):
    spec = FluxoniumSpec(**energies, grid_points=points)
    ref_vals, ref_psis = _oracle_levels(spec, 6)
    for n_levels in range(2, 7):
        lv = solve_levels(spec, n_levels=n_levels, convergence_tol=1.0)
        scale = np.max(np.abs(ref_vals[:n_levels]))
        assert np.max(np.abs(lv.energies - ref_vals[:n_levels])) < 1e-10 * scale
        assert np.max(np.abs(lv.wavefunctions - ref_psis[:n_levels])) < 1e-8


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
    assert lv.grid_shift == pytest.approx(ref.grid_shift, rel=1e-6)
    assert np.max(np.abs(lv.wavefunctions - ref.wavefunctions)) < 1e-8

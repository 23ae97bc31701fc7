import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxchain.hopfield import (
    HopfieldBlock,
    HopfieldError,
    branch_sweep,
    build_matrix,
    critical_coupling,
    determinant,
    polariton_frequencies,
)

from oracles import ETA, bisect_critical_coupling, eigenvalue_stability

freqs = st.floats(min_value=0.2, max_value=5.0)
couplings = st.floats(min_value=0.0, max_value=5.0)


def test_block_validation():
    with pytest.raises(HopfieldError):
        HopfieldBlock(0.0, 1.0, 0.1)
    with pytest.raises(HopfieldError):
        HopfieldBlock(1.0, 1.0, -0.1)


def test_decoupled_matrix_is_diagonal():
    m = build_matrix(HopfieldBlock(1.3, 0.7, 0.0))
    assert np.allclose(m, np.diag([1.3, 0.7, -1.3, -0.7]))
    lam = np.sort(np.linalg.eigvals(m).real)
    assert np.allclose(lam, [-1.3, -0.7, 0.7, 1.3])


@given(w=freqs, wf=freqs, c=couplings)
def test_generator_is_eta_pseudo_hermitian(w, wf, c):
    m = build_matrix(HopfieldBlock(w, wf, c))
    # denormal draws underflow inside allclose's tolerance product
    with np.errstate(under="ignore"):
        assert np.allclose(m.conj().T, ETA @ m @ ETA, atol=1e-13)


@given(w=freqs, wf=freqs, c=couplings)
def test_real_eigenvalues_come_in_plus_minus_pairs(w, wf, c):
    lam = np.linalg.eigvals(build_matrix(HopfieldBlock(w, wf, c)))
    if np.max(np.abs(lam.imag)) < 1e-10:
        s = np.sort(lam.real)
        assert np.allclose(s, -s[::-1], atol=1e-10)


def test_resonant_block_matches_eigenvalue_oracle():
    b = HopfieldBlock(1.0, 1.0, 0.3)
    lam = np.sort(np.linalg.eigvals(build_matrix(b)).real)
    res = polariton_frequencies(b)
    assert res.stable
    pos = lam[lam > 0]
    assert np.allclose(np.sort(pos), [res.lower, res.upper], atol=1e-10)


class TestDeterminant:
    def test_zero_at_critical(self):
        b = HopfieldBlock(1.7, 0.9, critical_coupling(1.7, 0.9))
        assert abs(determinant(b)) < 1e-12 * (1.7 * 0.9) ** 2

    def test_decoupled(self):
        assert determinant(HopfieldBlock(1.5, 2.0, 0.0)) == pytest.approx(
            (1.5 * 2.0) ** 2, rel=1e-12
        )

    def test_hand_value(self):
        assert determinant(HopfieldBlock(1.0, 1.0, 0.25)) == pytest.approx(
            0.75, rel=1e-12
        )

    def test_closed_form_equals_numeric_on_random_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            w, wf = rng.uniform(0.2, 5.0, size=2)
            c = rng.uniform(0.0, 3.0)
            b = HopfieldBlock(w, wf, c)
            closed = determinant(b)
            numeric = complex(np.linalg.det(build_matrix(b)))
            scale = max(abs(closed), (w * wf) ** 2)
            assert abs(numeric - closed) <= 1e-10 * scale


class TestCriticalCoupling:
    def test_formula_values(self):
        assert critical_coupling(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert critical_coupling(4.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_bisection_oracle_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w, wf = rng.uniform(0.2, 5.0, size=2)
            found = bisect_critical_coupling(w, wf)
            assert abs(found - critical_coupling(w, wf)) < 1e-8


class TestPolaritonFrequencies:
    def test_decoupled_branches(self):
        res = polariton_frequencies(HopfieldBlock(2.0, 0.5, 0.0))
        assert res.frequencies == pytest.approx((0.5, 2.0), rel=1e-12)

    def test_gapless_at_critical(self):
        b = HopfieldBlock(1.0, 1.0, critical_coupling(1.0, 1.0))
        res = polariton_frequencies(b)
        assert res.stable
        assert res.lower < 1e-8

    def test_branches_against_quartic_roots(self):
        b = HopfieldBlock(1.0, 1.0, 0.25)
        # companion-matrix roots of l^4 - (w^2 + wf^2) l^2 + det/(w*wf) * w*wf
        coeffs = [1.0, 0.0, -(1.0 + 1.0), 0.0, 1.0 * (1.0 - 4 * 0.25**2)]
        roots = np.roots(coeffs)
        pos = np.sort(roots[roots.real > 0].real)
        res = polariton_frequencies(b)
        assert np.allclose([res.lower, res.upper], pos, atol=1e-10)

    def test_unstable_block_reports_imaginary_magnitude(self):
        b = HopfieldBlock(1.0, 1.0, 0.8)
        res = polariton_frequencies(b)
        assert not res.stable
        assert math.isnan(res.lower)
        lam = np.linalg.eigvals(build_matrix(b))
        assert res.imag_magnitude == pytest.approx(np.max(lam.imag), rel=1e-8)

    def test_lower_branch_softens_continuously(self):
        wc = critical_coupling(1.0, 1.0)
        lows = [polariton_frequencies(HopfieldBlock(1.0, 1.0, c)).lower
                for c in np.linspace(0.0, wc, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))
        assert lows[-1] < 1e-7


def test_eigenvalue_stability_flips_exactly_once_on_a_fine_grid():
    w, wf = 1.4, 0.8
    wc = critical_coupling(w, wf)
    grid = np.linspace(0.9 * wc, 1.1 * wc, 200)
    flags = [eigenvalue_stability(HopfieldBlock(w, wf, c)) for c in grid]
    assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1


class TestBranchSweep:
    def test_grid_through_critical_has_one_flip(self):
        rows = branch_sweep(1.0, 1.0, np.linspace(0.0, 1.0, 21))
        flags = [r["stable"] for r in rows]
        assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1

    def test_empty_grid(self):
        assert branch_sweep(1.0, 1.0, []) == []

    def test_unsorted_grid_rejected(self):
        with pytest.raises(HopfieldError):
            branch_sweep(1.0, 1.0, [0.5, 0.2])

    def test_lower_branch_monotone_below_critical(self):
        wc = critical_coupling(1.0, 1.0)
        rows = branch_sweep(1.0, 1.0, np.linspace(0.0, wc * 0.999, 25))
        lows = [r["lower"] for r in rows]
        assert all(b < a for a, b in zip(lows, lows[1:]))

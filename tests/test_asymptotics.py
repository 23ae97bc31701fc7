import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import zeta

from fluxchain.asymptotics import (
    MIN_MASS,
    CutoffError,
    analytic_splitting_general,
    analytic_splitting_n2,
    asymptotic_vacuum,
    beta_exponent,
    coherent_amplitudes,
    coherent_vector,
    configuration_energies,
    displaced_amplitudes,
    doublet_overlap,
    minimize_pseudospin_config,
    subspace_overlap,
)
from fluxchain.manybody import (
    DENSE_LIMIT,
    SECTORS,
    BasisIndexer,
    ManyBodyError,
    ManyBodySpec,
    Wavefunction,
    sector_spectra,
)
from fluxchain import krylov
from fluxchain.cli import main
from fluxchain.disorder import protection_check

from oracles import dense_hamiltonian, embedded


class TestCoherentAmplitudes:
    def test_zero_coupling(self):
        assert np.all(coherent_amplitudes(4, 3, 0.0) == 0)

    def test_even_modes_empty(self):
        amps = coherent_amplitudes(6, 6, 1.3)
        assert np.all(amps[1::2] == 0)

    def test_reference_magnitude(self):
        # five atoms, first mode: sqrt(2)/sin(pi/10)
        amps = coherent_amplitudes(5, 3, 1.0)
        assert abs(amps[0]) == pytest.approx(math.sqrt(2) / math.sin(math.pi / 10),
                                             rel=1e-12)
        assert abs(amps[0]) == pytest.approx(4.5765, abs=5e-4)

    def test_matches_configuration_derived_amplitudes_below_zone_boundary(self):
        spec = ManyBodySpec.from_coupling(5, 3, 0.8)
        closed = coherent_amplitudes(5, 3, 0.8)
        derived = displaced_amplitudes(spec, [+1] * 5)
        assert np.allclose(closed, derived, atol=1e-12)


class TestCoherentVector:
    def test_truncated_overlap_matches_closed_form(self):
        # <alpha|-alpha> = exp(-2|alpha|^2) once the truncation holds the mass
        alpha = 1.7 + 0.4j
        cut = 40
        plus = coherent_vector(alpha, cut)
        minus = coherent_vector(-alpha, cut)
        got = np.vdot(plus, minus)
        assert got == pytest.approx(math.exp(-2 * abs(alpha) ** 2), abs=1e-8)

    def test_mass_converges_to_one(self):
        vec = coherent_vector(2.0j, 60)
        assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestAsymptoticVacuum:
    def test_zero_coupling_is_polarized_vacuum(self):
        spec = ManyBodySpec.from_coupling(3, 2, 0.0)
        wf = asymptotic_vacuum(spec, +1)
        # every spin pattern weighted 2^(-N/2), photons empty: the occupations
        # sit above the spin bits, so only the first 2^N indices are occupied
        assert np.all(np.flatnonzero(np.abs(wf.data) > 1e-12) < spec.spin_dim)
        assert np.allclose(
            np.abs(wf.data[np.abs(wf.data) > 1e-12]), 2 ** (-3 / 2)
        )

    def test_unit_norm_and_orthogonal_pair(self):
        spec = ManyBodySpec.from_coupling(4, 3, 1.1)
        gp = asymptotic_vacuum(spec, +1)
        gm = asymptotic_vacuum(spec, -1)
        assert np.linalg.norm(gp.data) == pytest.approx(1.0, abs=1e-10)
        # spin factors <+|-> = 0 per site make the pair exactly orthogonal
        assert abs(np.vdot(gp.data, gm.data)) < 1e-12

    def test_photonic_overlap_closed_form(self):
        # the bosonic factor of <G+|G-> is prod_odd exp(-2|alpha_k|^2)
        spec = ManyBodySpec.from_coupling(2, 1, 0.6)
        amps = displaced_amplitudes(spec, [+1, +1])
        plus = coherent_vector(amps[0], spec.cutoffs[0])
        minus = coherent_vector(-amps[0], spec.cutoffs[0])
        expected = math.exp(-2 * abs(amps[0]) ** 2)
        assert np.vdot(plus, minus).real == pytest.approx(expected, abs=1e-8)

    def test_cutoff_error_reports_requirement(self):
        # |alpha|^2 = 9, 25, 64: the least cutoff keeping MIN_MASS
        for g, need in ((1.5, 20), (2.5, 42), (4.0, 90)):
            spec = ManyBodySpec.from_coupling(2, 1, g, cutoffs=(3,))
            with pytest.raises(CutoffError) as err:
                asymptotic_vacuum(spec, +1)
            assert err.value.required == need
            with pytest.raises(CutoffError):
                asymptotic_vacuum(ManyBodySpec.from_coupling(
                    2, 1, g, cutoffs=(need - 1,)), +1)
            alpha = displaced_amplitudes(spec, [1, 1])[0]
            assert np.sum(np.abs(coherent_vector(alpha, need - 1)) ** 2) < MIN_MASS
            assert np.sum(np.abs(coherent_vector(alpha, need)) ** 2) >= MIN_MASS

    def test_energy_expectation_equals_configuration_energy(self):
        # the atomic term averages to zero in an x-polarized product state and
        # coherent states are exact for the rest, so <G|H|G> is the
        # configuration energy up to truncation
        for g in (1.0, 2.0, 3.0):
            spec = ManyBodySpec.from_coupling(2, 1, g, safety=6.0)
            wf = asymptotic_vacuum(spec, +1)
            e = np.vdot(wf.data, dense_hamiltonian(spec) @ wf.data).real
            assert e / (-4.0 * g * g) == pytest.approx(1.0, abs=1e-10)


class TestSubspaceOverlap:
    def _pair(self, spec, seed):
        idx = BasisIndexer(spec, "full")
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(2):
            v = rng.standard_normal(idx.dimension) + 1j * rng.standard_normal(idx.dimension)
            out.append(Wavefunction(idx, v / np.linalg.norm(v)))
        return tuple(out)

    def test_identical_pairs(self):
        spec = ManyBodySpec.from_coupling(2, 2, 0.5)
        pair = self._pair(spec, 0)
        res = subspace_overlap(pair, pair)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pairs(self):
        spec = ManyBodySpec.from_coupling(2, 2, 0.5)
        idx = BasisIndexer(spec, "full")
        basis = np.eye(idx.dimension, dtype=complex)
        a = (Wavefunction(idx, basis[0]), Wavefunction(idx, basis[1]))
        b = (Wavefunction(idx, basis[2]), Wavefunction(idx, basis[3]))
        assert subspace_overlap(a, b).fidelity == pytest.approx(0.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=50))
    def test_unitary_remix_invariance(self, seed):
        spec = ManyBodySpec.from_coupling(2, 1, 0.4)
        a = self._pair(spec, seed)
        b = self._pair(spec, seed + 1000)
        base = subspace_overlap(a, b).fidelity
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        mixed = (
            Wavefunction(a[0].indexer, u[0, 0] * a[0].data + u[1, 0] * a[1].data),
            Wavefunction(a[0].indexer, u[0, 1] * a[0].data + u[1, 1] * a[1].data),
        )
        assert subspace_overlap(mixed, b).fidelity == pytest.approx(base, abs=1e-12)

    def test_rank_deficient_rejected(self):
        spec = ManyBodySpec.from_coupling(2, 1, 0.4)
        a = self._pair(spec, 3)
        dup = (a[0], Wavefunction(a[0].indexer, a[0].data.copy()))
        with pytest.raises(ManyBodyError):
            subspace_overlap(dup, a)


class TestDoubletOverlap:
    """Two sector overlaps against the principal angles in the full space."""

    @staticmethod
    def _ground_pair(spec):
        solved = sector_spectra([(spec, s) for s in SECTORS], 1, with_vectors=True)
        return [r.vectors[0] for r in solved], {r.method for r in solved}

    @pytest.mark.parametrize("spec, method", [
        # g = 0: the odd ground level is degenerate
        (ManyBodySpec.from_coupling(2, 1, 0.0), "dense"),
        (ManyBodySpec.from_coupling(2, 1, 0.5), "dense"),
        # one sector of 416 states, just above DENSE_LIMIT
        (ManyBodySpec.from_coupling(3, 2, 1.0, cutoffs=(DENSE_LIMIT // 16, 3)), "lanczos"),
    ])
    def test_matches_subspace_overlap(self, spec, method):
        pair, methods = self._ground_pair(spec)
        assert methods == {method}
        full = BasisIndexer(spec, "full")
        want = subspace_overlap(tuple(Wavefunction(full, embedded(wf)) for wf in pair),
                                (asymptotic_vacuum(spec, +1), asymptotic_vacuum(spec, -1)))
        got = doublet_overlap(pair)
        assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12)
        assert got.cosines == pytest.approx(want.cosines, abs=1e-12)
        assert got.cosines[0] >= got.cosines[1]

    def test_pair_of_one_spec_and_both_sectors(self):
        spec = ManyBodySpec.from_coupling(2, 1, 0.5)
        (even, odd), _ = self._ground_pair(spec)
        (other, _), _ = self._ground_pair(spec.with_omega_atoms((1.1, 0.9)))
        for pair in ((even, even), (odd, even), (other, odd)):
            with pytest.raises(ManyBodyError):
                doublet_overlap(pair)


def test_overlaps_build_no_full_space(monkeypatch, tmp_path):
    # the fidelity and the protection check read the vacua's product factors
    build = BasisIndexer.__init__

    def sector_only(self, spec, sector):
        assert sector != "full", "a full-space basis was built"
        build(self, spec, sector)

    monkeypatch.setattr(BasisIndexer, "__init__", sector_only)
    with pytest.raises(AssertionError):
        BasisIndexer(ManyBodySpec.from_coupling(2, 1, 0.5), "full")
    spec = ManyBodySpec.from_coupling(3, 2, 1.0)
    pair, _ = TestDoubletOverlap._ground_pair(spec)
    assert doublet_overlap(pair).fidelity > 0.9
    assert abs(protection_check(3, 2, 1.5, 3, [0.4, -0.1, 0.2])[("+", "-")]) > 0.0
    assert main(["overlap", "--n", "3", "--n-m", "2", "--g-grid", "[0.8, 1.2]",
                 "--out-dir", str(tmp_path)]) == 0


def test_overlaps_do_not_depend_on_the_core_count():
    # 13,680-state sectors: unpinned, OpenBLAS splits the dot products of
    # such vectors across threads, and the fidelity's last bits follow the
    # thread count the process had before the call
    lib = krylov._openblas()
    if lib is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    if krylov.usable_cores() < 2:
        pytest.skip("one usable core")
    spec = ManyBodySpec.from_coupling(5, 3, 0.5, safety=2.5)
    rng = np.random.default_rng(3)
    pair = [Wavefunction(idx, rng.standard_normal(idx.dimension)
                         + 1j * rng.standard_normal(idx.dimension))
            for idx in (BasisIndexer(spec, sec) for sec in SECTORS)]
    other = [Wavefunction(w.indexer, w.data[::-1].copy()) for w in pair]
    before = lib.scipy_openblas_get_num_threads64_()
    try:
        runs = []
        for count in (1, 2):
            lib.scipy_openblas_set_num_threads64_(count)
            runs.append((doublet_overlap(pair), subspace_overlap(pair, other)))
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert runs[0] == runs[1]


class TestPseudospinMinimizer:
    def test_ferromagnetic_pair_for_standard_geometry(self):
        for n in range(2, 9):
            configs, _ = minimize_pseudospin_config(n, n, g=1.0)
            assert len(configs) == 2
            assert tuple([1] * n) in configs
            assert tuple([-1] * n) in configs

    def test_global_sign_symmetry(self):
        energies, signs = configuration_energies(4, 3, g=0.9)
        table = {tuple(s): e for s, e in zip(signs, energies)}
        for s, e in table.items():
            assert table[tuple(-x for x in s)] == pytest.approx(e, rel=1e-12)

    def test_three_atoms_ferro_beats_domain_walls(self):
        energies, signs = configuration_energies(3, 3, g=1.0)
        table = {tuple(s): e for s, e in zip(signs, energies)}
        ferro = table[(1, 1, 1)]
        for s, e in table.items():
            if s not in ((1, 1, 1), (-1, -1, -1)):
                assert e > ferro + 1e-9

    def test_brute_force_cap(self):
        with pytest.raises(ManyBodyError):
            minimize_pseudospin_config(21, 3)


class TestAnalyticSplittings:
    def test_two_atom_value(self):
        val = analytic_splitting_n2(1.0, 1.0, 1.0)
        assert val == pytest.approx(0.5 * math.sqrt(math.pi / 2) * math.exp(-8),
                                    rel=1e-12)
        assert val == pytest.approx(2.102e-4, rel=1e-3)

    def test_scaling_ratio(self):
        g = 0.9
        ratio = analytic_splitting_n2(1.0, 1.0, 2 * g) / analytic_splitting_n2(
            1.0, 1.0, g
        )
        assert ratio == pytest.approx(0.5 * math.exp(-24 * g * g), rel=1e-12)

    def test_singular_at_zero(self):
        with pytest.raises(ManyBodyError):
            analytic_splitting_n2(1.0, 1.0, 0.0)

    def test_general_formula_reduces_to_two_atom_exponent(self):
        # same e^(-8 g^2) decay; prefactors differ by the subexponential factor
        g1, g2 = 1.0, 1.4
        general = [analytic_splitting_general(2, 2, g, (1.0, 1.0), 1.0)
                   for g in (g1, g2)]
        slope = (math.log(general[1]) - math.log(general[0])) / (g2**2 - g1**2)
        assert slope == pytest.approx(-8.0, rel=1e-12)
        assert analytic_splitting_general(2, 2, 1.0, (1.0, 1.0), 1.0) == (
            pytest.approx(2 * 2 * 0.25 * math.exp(-8), rel=1e-12)
        )

    def test_linear_in_each_atomic_frequency(self):
        base = analytic_splitting_general(3, 3, 1.0, (1.0, 1.0, 1.0), 1.0)
        bumped = analytic_splitting_general(3, 3, 1.0, (2.0, 1.0, 1.0), 1.0)
        assert bumped == pytest.approx(2 * base, rel=1e-12)

    def test_uniform_frequencies_give_power_prefactor(self):
        w = 0.7
        n = 4
        val = analytic_splitting_general(n, 2, 1.1, (w,) * n, 1.0)
        expected = (2 * math.factorial(n) * (w / 2.0) ** n
                    * math.exp(-beta_exponent(n, 2) * 1.1**2))
        assert val == pytest.approx(expected, rel=1e-12)


class TestBetaExponent:
    def test_two_atoms_exactly_eight(self):
        assert beta_exponent(2, 2) == pytest.approx(8.0, rel=1e-14)
        assert beta_exponent(2, 1) == pytest.approx(8.0, rel=1e-14)

    def test_large_n_limit(self):
        # beta / N^2 -> 16 * (7 zeta(3) / 8) / pi^2
        limit = 16.0 * (7.0 * zeta(3) / 8.0) / math.pi**2
        assert beta_exponent(50, 50) / 50**2 == pytest.approx(limit, rel=1e-3)

    def test_bounds_for_small_chains(self):
        for n in range(2, 51):
            for nm in range(1, n + 1):
                b = beta_exponent(n, nm)
                assert 1.6 * n * n < b < 2.1 * n * n

    def test_slope_of_general_formula_is_minus_beta(self):
        n, nm = 3, 3
        b = beta_exponent(n, nm)
        g1, g2 = 0.8, 1.3
        d1 = analytic_splitting_general(n, nm, g1, (1.0,) * n, 1.0)
        d2 = analytic_splitting_general(n, nm, g2, (1.0,) * n, 1.0)
        slope = (math.log(d2) - math.log(d1)) / (g2**2 - g1**2)
        assert slope == pytest.approx(-b, rel=1e-12)

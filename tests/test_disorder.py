import math

import mpmath
import numpy as np
import pytest

from fluxchain.disorder import (
    DisorderEnsembleSpec,
    DisorderError,
    ensemble_splitting,
    protection_check,
    sample_frequencies,
)
from fluxchain.asymptotics import (
    analytic_splitting_general,
    asymptotic_vacuum,
    displaced_amplitudes,
)
from fluxchain import manybody
from fluxchain.manybody import ManyBodyError, ManyBodySpec, spin_diagonal

from oracles import SZ, parity_diagonal, spin_op


def base_spec(n=2, nm=1, g=1.0, **kw):
    return ManyBodySpec.from_coupling(n, nm, g, **kw)


def perturbation_diagonal(spec, deltas):
    """sum_j (Delta_j / 2) sz_j over the full basis, the identity on the modes."""
    return np.tile(spin_diagonal(deltas), spec.dimension // spec.spin_dim)


def make_ensemble(n=2, nm=1, g=1.0, amplitude=0.5, count=10, seed=7, **kw):
    return DisorderEnsembleSpec(
        base=base_spec(n, nm, g, **kw), amplitude=amplitude, count=count,
        seed=seed,
    )


class TestSampling:
    def test_zero_amplitude(self):
        freqs = sample_frequencies(make_ensemble(amplitude=0.0, count=5))
        assert np.allclose(freqs, 1.0)

    @pytest.mark.parametrize("amplitude", [-0.1, math.nan, math.inf, -math.inf])
    def test_amplitude_outside_zero_to_infinity_rejected(self, amplitude):
        # nan < 0 is false: a nan amplitude once gave the analytic engine
        # [nan nan] without an error
        with pytest.raises(DisorderError, match="amplitude"):
            make_ensemble(amplitude=amplitude, count=2)

    def test_negative_seed_rejected(self):
        # numpy's generator once refused it with a message that named no key
        with pytest.raises(DisorderError, match="seed"):
            make_ensemble(seed=-1, count=2)

    def test_seed_determinism(self):
        a = sample_frequencies(make_ensemble(count=8, seed=3))
        b = sample_frequencies(make_ensemble(count=8, seed=3))
        assert np.array_equal(a, b)
        c = sample_frequencies(make_ensemble(count=8, seed=4))
        assert not np.array_equal(a, c)

    def test_realizations_independent_of_count(self):
        # realization r depends only on (seed, r), not on how many are drawn
        few = sample_frequencies(make_ensemble(count=3, seed=11))
        many = sample_frequencies(make_ensemble(count=9, seed=11))
        assert np.array_equal(few, many[:3])

    def test_mean_within_three_standard_errors(self):
        spec = make_ensemble(n=4, nm=2, amplitude=0.5, count=2500, seed=1)
        freqs = sample_frequencies(spec)
        se = 0.5 / math.sqrt(freqs.size)
        assert abs(freqs.mean() - 1.0) < 3 * se


class TestEnsembleSplitting:
    def test_zero_amplitude_reproduces_clean_case(self):
        from fluxchain.manybody import ground_splittings

        deltas = ensemble_splitting(make_ensemble(amplitude=0.0, count=4),
                                    engine="exact")
        clean = ground_splittings([base_spec()], refine=False)[0]
        assert np.std(deltas) == pytest.approx(0.0, abs=1e-14)
        assert np.mean(deltas) == pytest.approx(clean.delta, rel=1e-10)

    def test_reproducible_bit_for_bit(self):
        a = ensemble_splitting(make_ensemble(count=6), engine="analytic")
        b = ensemble_splitting(make_ensemble(count=6), engine="analytic")
        assert np.mean(a) == np.mean(b)
        assert np.std(a) == np.std(b)
        assert np.array_equal(a, b)

    def test_analytic_ratio_two_atoms(self):
        # sigma / <delta> -> sqrt(2 + (D/w)^2) * (D/w) for the product form
        amp = 0.5
        deltas = ensemble_splitting(
            make_ensemble(nm=2, amplitude=amp, count=20000, seed=12),
            engine="analytic",
        )
        expected = math.sqrt(2 + amp**2) * amp
        assert np.std(deltas) / np.mean(deltas) == pytest.approx(expected,
                                                                 rel=0.05)

    def test_analytic_ratio_general_n_small_amplitude(self):
        n, amp = 4, 0.05
        deltas = ensemble_splitting(
            make_ensemble(n=n, nm=2, amplitude=amp, count=20000, seed=5),
            engine="analytic",
        )
        assert np.std(deltas) / np.mean(deltas) == pytest.approx(
            math.sqrt(n) * amp, rel=0.08
        )

    def test_exact_engine_refused_where_a_sector_solve_is(self, monkeypatch):
        # 255,528,000 states a sector: refused before any basis or engine is
        # built, while the product formula builds neither
        big = DisorderEnsembleSpec(base=ManyBodySpec.from_coupling(6, 6, 1.5),
                                   amplitude=0.1, count=2, seed=0)

        def built(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built")

        monkeypatch.setattr(manybody.BasisIndexer, "__init__", built)
        monkeypatch.setattr(manybody.HamiltonianEngine, "__init__", built)
        with pytest.raises(ManyBodyError, match="SOLVE_BYTES"):
            ensemble_splitting(big, engine="exact")
        deltas = ensemble_splitting(big, engine="analytic")
        assert deltas.shape == (2,) and np.all(np.isfinite(deltas))

    def test_disordered_slope_tracks_clean_slope(self):
        # exponential decay rate in g^2 survives strong frequency disorder
        gs = (1.0, 1.3, 1.6)
        clean, noisy = [], []
        for g in gs:
            clean.append(np.mean(
                ensemble_splitting(make_ensemble(g=g, amplitude=0.0, count=1),
                                   engine="exact")
            ))
            noisy.append(np.mean(
                ensemble_splitting(make_ensemble(g=g, amplitude=0.5, count=40,
                                                 seed=9),
                                   engine="exact")
            ))
        x = np.array([g * g for g in gs])
        slope_clean = np.polyfit(x, np.log(clean), 1)[0]
        slope_noisy = np.polyfit(x, np.log(noisy), 1)[0]
        assert slope_noisy == pytest.approx(slope_clean, rel=0.05)


class TestStackedEnsemble:
    """The exact engine solves every realization and sector as one stack."""

    @pytest.mark.parametrize("n, nm, g, kw, dim", [
        (2, 1, 1.2, {}, 66),
        (2, 2, 1.2, {"even_floor": 6}, 462),
        (3, 2, 1.0, {}, 740),
        (3, 3, 0.7, {}, 11020),
    ])
    def test_column_does_not_depend_on_its_neighbours(self, n, nm, g, kw, dim):
        # the 740-state columns split into stacks of 9 and 3, and the
        # 11,020-state ones go one at a time; the 66-state ones are dense
        base = base_spec(n, nm, g, **kw)
        assert base.dimension // 2 == dim
        few, many = (ensemble_splitting(DisorderEnsembleSpec(base, 0.3, count, 5),
                                        engine="exact")
                     for count in (3, 6))
        assert few.tobytes() == many[:3].tobytes()

    def test_analytic_engine_is_the_per_row_formula(self):
        spec = make_ensemble(n=4, nm=2, amplitude=0.5, count=200, seed=3)
        deltas = ensemble_splitting(spec, engine="analytic")
        rows = [analytic_splitting_general(4, 2, spec.base.g, w, spec.base.omega_modes[0])
                for w in sample_frequencies(spec)]
        assert deltas.tobytes() == np.array(rows).tobytes()


class TestPerturbation:
    def test_zero_disorder_annihilates(self):
        out = protection_check(2, 1, 1.2, 1, [0.0, 0.0])
        assert all(abs(v) == 0.0 for v in out.values())

    def test_commutes_with_parity(self):
        spec = base_spec(3, 2, 0.8)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(spec.dimension) + 1j * rng.standard_normal(spec.dimension)
        diag = perturbation_diagonal(spec, [0.3, -0.2, 0.5])
        signs = parity_diagonal(spec)
        assert np.max(np.abs(signs * (diag * v) - diag * (signs * v))) < 1e-12

    def test_matches_kron_oracle(self):
        # P = sum_j Delta_j/2 sz_j from explicit krons, the identity on the
        # modes; unequal Deltas pin the atom-to-bit order of the diagonal, and
        # the odd orders pin the sign of sz
        n, deltas = 3, [0.5, -0.2, 0.3]
        spec = base_spec(n, 2, 0.5)
        p_spin = sum(0.5 * d * spin_op(n, j, SZ) for j, d in enumerate(deltas, 1))
        modes = np.eye(spec.dimension // spec.spin_dim)
        diag = np.diag(np.kron(modes, p_spin))
        assert np.max(np.abs(perturbation_diagonal(spec, deltas) - diag)) < 1e-15
        states = {"+": asymptotic_vacuum(spec, +1).data,
                  "-": asymptotic_vacuum(spec, -1).data}
        for m in (1, 2, 3):
            p_m = np.kron(modes, np.linalg.matrix_power(p_spin, m))
            el = protection_check(n, 2, 0.5, m, deltas)
            for (bra, ket), value in el.items():
                want = np.vdot(states[bra], p_m @ states[ket])
                assert abs(value - want) < 1e-13

    def test_protection_below_order_n(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            deltas = 0.5 * rng.standard_normal(n)
            for m in range(1, n):
                el = protection_check(n, 2 if n > 2 else n, 1.5, m, deltas)
                # degeneracy-lifting pieces: both cross elements and the
                # diagonal asymmetry vanish identically below order N
                assert abs(el[("+", "-")]) < 1e-12
                assert abs(el[("-", "+")]) < 1e-12
                assert abs(el[("+", "+")] - el[("-", "-")]) < 1e-12

    def test_first_order_elements_all_vanish(self):
        el = protection_check(3, 2, 1.5, 1, [0.4, -0.1, 0.2])
        assert all(abs(v) < 1e-12 for v in el.values())

    def test_even_order_diagonal_is_moment_sum(self):
        # the same-side element at order two is sum Delta_j^2 / 4: the
        # perturbation is diagonal-free only in its lifting combinations
        deltas = [0.4, -0.1, 0.2]
        el = protection_check(3, 2, 1.5, 2, deltas)
        expected = sum(d * d for d in deltas) / 4.0
        assert el[("+", "+")].real == pytest.approx(expected, rel=1e-10)

    def test_order_n_cross_element_opens(self):
        # two atoms at moderate coupling: the order-N element is resolvable
        # and sits at the coherent-overlap scale
        deltas = [0.37, -0.21]
        el = protection_check(2, 2, 1.0, 2, deltas)
        cross = abs(el[("+", "-")])
        assert cross > 1e-12
        # scale check: 2 * (D1 D2 / 4) * exp(-2 sum |alpha|^2), mode 1 only
        alpha2 = 2 * 1.0**2 / math.sin(math.pi / 4) ** 2
        expected = 2 * abs(deltas[0] * deltas[1]) / 4 * math.exp(-2 * alpha2)
        assert cross == pytest.approx(expected, rel=0.05)

    def test_order_n_cross_element_is_the_untruncated_overlap(self):
        # criterion 9's draws.  Each mode overlap <a|-a> is summed over Fock
        # states in 50 digits, far past any cutoff.  Each sz_j maps the
        # x-polarized atom + to -, with <+|sz|-> = 1 in the vacua's phase
        # convention, so the spin moment at order N is N! prod_j Delta_j / 2
        rng = np.random.default_rng(909)
        with mpmath.workdps(50):
            for n in (2, 3, 4):
                deltas = 0.5 * rng.standard_normal(n)
                amps = displaced_amplitudes(base_spec(n, 2, 1.5), [+1] * n)
                want = math.factorial(n) * mpmath.fprod(mpmath.mpf(d) / 2 for d in deltas)
                for a in amps:
                    a2 = abs(mpmath.mpc(a.real, a.imag)) ** 2
                    want *= mpmath.exp(-a2) * mpmath.fsum(
                        (-a2) ** k / mpmath.factorial(k) for k in range(400))
                got = protection_check(n, 2, 1.5, n, deltas)[("+", "-")]
                assert abs(got - complex(want)) <= 1e-10 * abs(complex(want))

    def test_runs_beyond_the_dimension_budget(self):
        # from_coupling(5, 5, 1.0) holds 19,060,800 states, more than a
        # solve may hold; the product form builds no Fock space
        deltas = [0.3, -0.2, 0.4, 0.1, -0.5]
        el = protection_check(5, 5, 1.0, 5, deltas)
        assert el[("+", "+")] == el[("-", "-")]
        amps = displaced_amplitudes(base_spec(5, 5, 1.0, cutoffs=(1,) * 5), [+1] * 5)
        expected = (math.factorial(5) * np.prod(np.array(deltas) / 2)
                    * math.exp(-2 * np.sum(np.abs(amps) ** 2)))
        assert el[("+", "-")] == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DisorderError):
            protection_check(2, 1, 1.0, 0, [0.1, 0.1])
        with pytest.raises(DisorderError):
            protection_check(2, 1, 1.0, 1, [0.1])

import ctypes
import math
import multiprocessing
import pickle
import sys
from dataclasses import fields
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from fluxchain import krylov, manybody
from fluxchain.cli import main as cli_main
from fluxchain.disorder import DisorderEnsembleSpec, sample_frequencies
from fluxchain.fluxonium import FluxoniumSpec, solve_levels
from fluxchain.krylov import EigenConvergenceError, lowest_eigenpairs
from fluxchain.manybody import (
    DENSE_LIMIT,
    SECTORS,
    BasisIndexer,
    HamiltonianEngine,
    ManyBodyError,
    ManyBodySpec,
    Wavefunction,
    _column_dimension,
    _mirror_fold,
    _padded_start,
    _refined_cutoffs,
    choose_cutoffs,
    collective_rabi_ratios,
    ground_columns,
    ground_splittings,
    lowest_spectrum,
    parallel_map,
    sector_spectra,
    spatial_weights,
)
from fluxchain.asymptotics import analytic_splitting_n2, asymptotic_vacuum, doublet_overlap

from oracles import dense_hamiltonian, embedded, mirror_operator, parity_diagonal


def small_spec(n=2, nm=2, g=1.0, cutoffs=(3, 2), **kw):
    return ManyBodySpec.from_coupling(n, nm, g, cutoffs=cutoffs, **kw)


def sector_lanczos(spec, sector, k, **kw):
    """The Lanczos solve that ``lowest_spectrum`` runs above DENSE_LIMIT."""
    op = HamiltonianEngine([(spec, sector)])
    return lowest_eigenpairs(op.matvec, op.dimension, k,
                             scale=op.norm_bound(), **kw)


def above_dense_limit_spec(g=1.0, **kw):
    """N = 3, N_m = 2 with the first cutoff sized so one sector just exceeds
    DENSE_LIMIT (16 (c + 1) states at second cutoff 3)."""
    return small_spec(3, 2, g, (DENSE_LIMIT // 16, 3), **kw)


def dense_block(spec, sector):
    """One parity block of H as a dense matrix in the documented complex basis."""
    op = HamiltonianEngine([(spec, sector)])
    return op.phase[:, None] * op.dense()[0] * op.phase.conj()


def apply_h(spec, wf):
    """H on a sector wavefunction in the documented complex basis."""
    op = HamiltonianEngine([(spec, wf.indexer.sector)])
    return op.phase * op.matvec((op.phase.conj() * wf.data)[None])[0]


def rand_wf(indexer, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(indexer.dimension) + 1j * rng.standard_normal(indexer.dimension)
    return Wavefunction(indexer, v / np.linalg.norm(v))


# ----------------------------------------------------------------- geometry

def test_spatial_weights_patterns():
    w = np.array(spatial_weights(5, 3))
    # odd rows are symmetric cosines, even rows antisymmetric sines
    assert np.allclose(w[0], w[0][::-1])
    assert np.allclose(w[1], -w[1][::-1])
    assert np.allclose(w[2], w[2][::-1])
    # zone boundary at N = N_m is the alternating pattern
    w2 = np.array(spatial_weights(4, 4))
    assert np.allclose(w2[3], [(-1.0) ** j / math.sqrt(2) for j in range(1, 5)])


def test_rabi_ratios_reference_values():
    r = collective_rabi_ratios(5, 3)
    s1 = math.sin(math.pi / 10)
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(math.sin(2 * math.pi / 10) / (s1 * math.sqrt(2)))
    assert r[2] == pytest.approx(math.sin(3 * math.pi / 10) / (s1 * math.sqrt(3)))


def test_spec_validation_and_g_roundtrip():
    # g is stored as given: W_1 / (sqrt(N) w_1) misses 17 of these 236
    # values in the last bit
    for n in range(2, 6):
        for i in range(1, 60):
            g = round(0.05 * i, 2)
            assert ManyBodySpec.from_coupling(n, 1, g, cutoffs=(3,)).g == g
    spec = small_spec(g=0.7)
    with pytest.raises(ManyBodyError):
        ManyBodySpec.from_coupling(2, 3, 1.0)
    with pytest.raises(ManyBodyError):
        small_spec(cutoffs=(0, 2))
    for g in (math.nan, math.inf, -0.1):
        with pytest.raises(ManyBodyError, match="g must be finite"):
            small_spec(g=g)
    with pytest.raises(ManyBodyError, match="omega_F"):
        spec.with_omega_atoms((1.0, math.nan))
    # only a solve is refused for its size (sector_spectra), not a spec
    assert ManyBodySpec.from_coupling(6, 6, 1.5).dimension == 511_056_000


@pytest.mark.parametrize("g", [0.3, 0.8])
def test_one_atom_chain_at_default_cutoffs(g):
    # at N = 1 the continuum amplitude g sqrt(2) sizes the one mode
    spec = ManyBodySpec.from_coupling(1, 1, g)
    doubled = spec.with_cutoffs([2 * c for c in spec.cutoffs])
    e0, e1 = (lowest_spectrum(s, "full", 1).eigenvalues[0] for s in (spec, doubled))
    assert abs(e0 - e1) <= 1e-10


def test_spec_holds_the_chain_inputs_and_derives_the_rest():
    spec = small_spec(3, 2, 0.9, (4, 3), omega_atoms=(0.8, 1.1, 1.3))
    assert [f.name for f in fields(ManyBodySpec)] == [
        "n_atoms", "n_modes", "g", "omega_atoms", "cutoffs"]
    assert spec.omega_modes == (1.0, 2.0)
    assert spec.rabi[0] == pytest.approx(0.9 * math.sqrt(3), rel=1e-15)
    np.testing.assert_allclose(
        spec.couplings, np.array(spec.weights) * np.array(spec.rabi)[:, None]
        * math.sqrt(2.0 / 3), rtol=1e-14)


# ------------------------------------------------------------------ cutoffs

class TestChooseCutoffs:
    def test_zero_coupling_gives_floor(self):
        assert choose_cutoffs(4, 3, 0.0) == (4, 4, 4)

    def test_reference_point(self):
        cuts = choose_cutoffs(5, 3, 1.0, safety=4.0)
        # mode 1 coherent weight is about 20.9 photons at this point
        assert cuts[0] >= 55
        assert cuts[1] == 4

    def test_monotone_in_safety(self):
        lo = choose_cutoffs(5, 3, 1.2, safety=2.0)
        hi = choose_cutoffs(5, 3, 1.2, safety=4.0)
        assert all(b >= a for a, b in zip(lo, hi))

    @pytest.mark.parametrize("safety", [0.5, math.nan, math.inf])
    def test_safety_outside_one_to_infinity_rejected(self, safety):
        # nan once ended in math.ceil's bare ValueError and inf in an
        # OverflowError, which the CLI does not turn into an error line
        for call in (choose_cutoffs, ManyBodySpec.from_coupling):
            with pytest.raises(ManyBodyError, match="safety"):
                call(3, 2, 1.0, safety=safety)

    @pytest.mark.parametrize("even_floor", [0, -2])
    def test_even_floor_below_one_rejected(self, even_floor):
        # (2, 2, 0.5) once gave the cutoffs (21, 0), and at N_m = 1, where
        # the floor only bounds a displaced mode's cutoff, -2 went unnoticed
        for n_modes in (1, 2):
            with pytest.raises(ManyBodyError, match="even_floor"):
                choose_cutoffs(2, n_modes, 0.5, even_floor=even_floor)
        # explicit cutoffs never reach choose_cutoffs
        spec = ManyBodySpec.from_coupling(2, 2, 0.5, cutoffs=(10, 2), even_floor=even_floor)
        assert spec.cutoffs == (10, 2)


# ------------------------------------------------------------------- basis

def test_indexer_bijection_and_sector_split():
    # the two sectors' sorted index lists partition the full basis in halves
    spec = small_spec(cutoffs=(2, 3))
    full = BasisIndexer(spec, "full")
    assert full.dimension == 4 * 3 * 4
    even = BasisIndexer(spec, "even")
    odd = BasisIndexer(spec, "odd")
    assert even.dimension == odd.dimension  # spin signs split exactly in half
    assert np.all(np.diff(even.indices) > 0) and np.all(np.diff(odd.indices) > 0)
    both = np.sort(np.concatenate([even.indices, odd.indices]))
    assert np.array_equal(both, np.arange(full.dimension))


def test_sector_indices_match_kron_parity():
    for spec in (small_spec(n=3, nm=2, cutoffs=(2, 2)), small_spec(cutoffs=(2, 3))):
        signs = parity_diagonal(spec)
        for sector, want in (("even", 1), ("odd", -1)):
            assert np.array_equal(BasisIndexer(spec, sector).indices,
                                  np.flatnonzero(signs == want))


@pytest.mark.parametrize("spec", [small_spec(2, 2, 1.0, (3, 2)),
                                  small_spec(3, 3, 0.7, (4, 2, 3)),
                                  small_spec(5, 2, 0.9, (3, 2))])
def test_product_is_the_decode_of_the_indices_bytewise(spec):
    rng = np.random.default_rng(8)
    rows = spec.dimension // 2**spec.n_atoms
    modes = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    spin = rng.standard_normal(2**spec.n_atoms)
    for sector in SECTORS:
        idx = BasisIndexer(spec, sector)
        want = modes[idx.indices // 2**spec.n_atoms] * spin[idx.indices % 2**spec.n_atoms]
        assert idx.product(modes, spin).tobytes() == want.tobytes()


# ------------------------------------------------------------------ matvec

class TestApplyHamiltonian:
    def test_matches_dense_kron_oracle_entrywise(self):
        for spec in (
            small_spec(2, 2, 1.0, (3, 2)),
            small_spec(3, 3, 0.7, (4, 2, 3)),
            small_spec(3, 2, 1.2, (5, 3)),
            small_spec(2, 1, 0.5, (6,)),
            small_spec(4, 2, 0.9, (3, 2), omega_atoms=(0.8, 1.1, 1.3, 0.6)),
        ):
            href = dense_hamiltonian(spec)
            tol = 1e-13 * max(1.0, np.abs(href).max())
            signs = parity_diagonal(spec)
            for sector, want in (("even", 1), ("odd", -1)):
                sel = np.flatnonzero(signs == want)
                block = href[np.ix_(sel, sel)]
                assert np.max(np.abs(dense_block(spec, sector) - block)) < tol
                w = rand_wf(BasisIndexer(spec, sector), 1)
                assert np.max(np.abs(apply_h(spec, w) - block @ w.data)) < tol

    def test_decoupled_ground_state_is_eigenvector(self):
        spec = small_spec(3, 2, 0.0, (2, 2), omega_atoms=(1.0, 1.2, 0.9))
        # all atoms down and no photons: full index 0, parity (-1)^3
        idx = BasisIndexer(spec, "odd")
        v = (idx.indices == 0).astype(complex)
        assert v.sum() == 1
        out = apply_h(spec, Wavefunction(idx, v))
        expected = -0.5 * sum(spec.omega_atoms)
        assert np.allclose(out, expected * v)

    def test_hermiticity_on_random_pairs(self):
        spec = small_spec(3, 2, 1.1, (3, 2))
        for sector in ("even", "odd"):
            idx = BasisIndexer(spec, sector)
            for seed in range(50):
                u, v = rand_wf(idx, 2 * seed), rand_wf(idx, 2 * seed + 1)
                lhs = np.vdot(u.data, apply_h(spec, v))
                rhs = np.conj(np.vdot(v.data, apply_h(spec, u)))
                assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch_rejected(self):
        spec = small_spec()
        other = small_spec(cutoffs=(4, 2))
        with pytest.raises(ManyBodyError):
            Wavefunction(BasisIndexer(spec, "even"),
                         rand_wf(BasisIndexer(other, "even"), 0).data)
        # the operator acts on parity sectors only, never the whole space
        with pytest.raises(ManyBodyError):
            HamiltonianEngine([(spec, "full")])

    def test_matvec_rejects_wrong_leading_length(self):
        op = HamiltonianEngine([(small_spec(), "even")])
        dim = op.dimension
        assert dim == 24
        # a multiple of the sector dimension must not pass as a stack, nor
        # a lone vector or a column stack
        for bad in (np.ones(dim), np.ones((1, 2 * dim)), np.ones((2, dim)),
                    np.ones((dim, 1)), np.ones((1, dim, 1)), np.float64(1.0)):
            with pytest.raises(ManyBodyError):
                op.matvec(bad)
        x = np.random.default_rng(3).standard_normal((1, dim))
        assert np.allclose(op.matvec(x), x @ op.dense()[0])

    @pytest.mark.parametrize("n, nm, cutoffs", [(2, 2, (7, 3)), (3, 3, (5, 3, 2)),
                                                (4, 2, (4, 3))])
    def test_product_is_the_per_axis_slice_product_bytewise(self, n, nm, cutoffs):
        # the same sums in the same order as a product that adds sqrt(n + 1)
        # times the ladder partner along each mode's axis of the (occupations,
        # spin) array, so the contiguous shifts change no bit
        spec = small_spec(n, nm, 0.9, cutoffs)
        columns = [(spec.with_omega_atoms(w), s) for w, s in (
            ((1.0,) * n, "even"), (tuple(np.linspace(0.8, 1.2, n)), "odd"),
            ((0.9,) * n, "odd"))]
        op = HamiltonianEngine(columns)
        x = np.random.default_rng(4).standard_normal((3, op.dimension))
        shape = (3,) + tuple(reversed(spec.mode_dims)) + (spec.spin_dim // 2,)
        v = x.reshape(shape)
        ref = v * op.diagonal.reshape(shape)
        rest = np.arange(spec.spin_dim // 2)
        for m, dim in enumerate(spec.mode_dims):
            x_m = spec.couplings[m, 0] * np.eye(rest.size)
            for j in range(1, n):
                x_m[rest, rest ^ (1 << (j - 1))] += spec.couplings[m, j]
            t = (v.reshape(3, -1, rest.size) @ x_m).reshape(shape)
            axis = nm - m
            lo, hi = [slice(None)] * len(shape), [slice(None)] * len(shape)
            lo[axis], hi[axis] = slice(None, -1), slice(1, None)
            sq = np.sqrt(np.arange(1.0, dim)).reshape((-1,) + (1,) * (m + 1))
            ref[tuple(lo)] -= sq * t[tuple(hi)]
            ref[tuple(hi)] -= sq * t[tuple(lo)]
        assert op.matvec(x).tobytes() == ref.reshape(3, -1).tobytes()


# ------------------------------------------------------------------ parity

class TestParity:
    def test_involution_and_commutation(self):
        spec = small_spec(3, 3, 0.9, (3, 2, 2))
        href = dense_hamiltonian(spec)
        signs = parity_diagonal(spec)
        assert np.array_equal(signs * signs, np.ones(spec.dimension))
        # the oracle H has no element between states of opposite parity ...
        assert np.max(np.abs(href[signs[:, None] != signs[None, :]])) == 0.0
        # ... so the two sector operators together act as H on the whole space
        full = BasisIndexer(spec, "full")
        for seed in range(5):
            v = rand_wf(full, seed)
            hv = np.zeros(spec.dimension, dtype=complex)
            for sector in ("even", "odd"):
                sub = BasisIndexer(spec, sector)
                hv[sub.indices] = apply_h(spec, Wavefunction(sub, v.data[sub.indices]))
            assert np.max(np.abs(hv - href @ v.data)) < 1e-12

    def test_all_down_vacuum_eigenvalue(self):
        for n in (2, 3):
            spec = small_spec(n, 2, 0.5, (2, 2))
            # all atoms down and no photons is full index 0
            assert parity_diagonal(spec)[0] == (-1.0) ** n
            assert 0 in BasisIndexer(spec, "even" if n % 2 == 0 else "odd").indices

    def test_parity_swaps_asymptotic_vacua(self):
        spec = ManyBodySpec.from_coupling(3, 2, 1.5, safety=5.0)
        gp = asymptotic_vacuum(spec, +1)
        gm = asymptotic_vacuum(spec, -1)
        overlap = abs(np.vdot(gm.data, parity_diagonal(spec) * gp.data))
        assert overlap > 0.999


# ------------------------------------------------------------- eigensolvers

class TestLowestSpectrum:
    def test_decoupled_values(self):
        spec = small_spec(2, 2, 0.0, (3, 3))
        res = lowest_spectrum(spec, "full", m=3)
        e0 = -0.5 * sum(spec.omega_atoms)
        assert res.eigenvalues[0] == pytest.approx(e0, abs=1e-12)
        gap = res.eigenvalues[1] - res.eigenvalues[0]
        assert gap == pytest.approx(min(spec.omega_atoms[0], spec.omega_modes[0]),
                                    abs=1e-12)

    def test_lanczos_matches_dense_per_sector(self):
        spec = small_spec(3, 2, 1.0, (4, 3))
        for sector in ("even", "odd"):
            d = scipy.linalg.eigvalsh(dense_block(spec, sector), subset_by_index=[0, 3])
            l = sector_lanczos(spec, sector, 4, tol=1e-12)
            assert np.max(np.abs(d - l.eigenvalues)) < 1e-9
            assert np.all(l.residuals < 1e-8)

    def test_route_switches_above_dense_limit(self):
        # g = 0 README example: the dense route returns every degenerate copy
        res = lowest_spectrum(small_spec(2, 2, 0.0, (3, 3)), "even", 6)
        assert res.method == "dense"
        assert np.allclose(res.eigenvalues, [-1, 1, 1, 1, 1, 2], atol=1e-12)
        # the measured crossover: 400 states dense, 416 Lanczos
        at, above = (small_spec(3, 2, 1.0, (c, 3)) for c in (24, 25))
        assert BasisIndexer(at, "even").dimension == DENSE_LIMIT == 400
        assert lowest_spectrum(at, "even", 1).method == "dense"
        assert BasisIndexer(above, "even").dimension == 416
        assert lowest_spectrum(above, "even", 1).method == "lanczos"

    def test_sector_union_equals_full_spectrum(self):
        spec = small_spec(2, 2, 0.9, (3, 2))
        full = scipy.linalg.eigvalsh(dense_hamiltonian(spec))
        union = np.sort(np.concatenate([np.linalg.eigvalsh(dense_block(spec, s))
                                        for s in ("even", "odd")]))
        assert np.max(np.abs(union - full)) < 1e-9

    def test_merged_full_spectrum_matches_dense(self):
        # sectors of 416 states go Lanczos, of 30 states dense
        for spec, method in ((above_dense_limit_spec(0.6), "lanczos"),
                             (small_spec(2, 2, 0.9, (4, 2)), "dense")):
            ref = scipy.linalg.eigvalsh(dense_hamiltonian(spec), subset_by_index=[0, 3])
            merged = lowest_spectrum(spec, "full", m=4, tol=1e-12)
            assert merged.method == f"{method}-merged"
            assert np.max(np.abs(merged.eigenvalues - ref)) < 1e-9
            assert np.all(np.diff(merged.eigenvalues) >= -1e-12)

    def test_merged_full_vectors_stay_per_sector(self):
        omega_atoms = (0.8, 1.15, 0.95)
        for spec, method in ((small_spec(3, 2, 1.1, (5, 3), omega_atoms=omega_atoms),
                              "dense"),
                             (above_dense_limit_spec(1.1, omega_atoms=omega_atoms),
                              "lanczos")):
            href = dense_hamiltonian(spec)
            merged = lowest_spectrum(spec, "full", m=4, tol=1e-12, with_vectors=True)
            assert merged.method == f"{method}-merged"
            levels = {s: lowest_spectrum(spec, s, m=4, tol=1e-12).eigenvalues
                      for s in ("even", "odd")}
            assert len(merged.vectors) == 4
            for e, v in zip(merged.eigenvalues, merged.vectors):
                assert v.indexer.sector in levels
                assert e in levels[v.indexer.sector]
                x = embedded(v)
                assert np.linalg.norm(href @ x - e * x) < 1e-9

    def test_sector_vectors_are_oracle_eigenvectors(self):
        omega_atoms = (0.8, 1.15, 0.95)
        for spec, method in ((small_spec(3, 2, 1.1, (5, 3), omega_atoms=omega_atoms),
                              "dense"),
                             (above_dense_limit_spec(1.1, omega_atoms=omega_atoms),
                              "lanczos")):
            href = dense_hamiltonian(spec)
            for sector in ("even", "odd"):
                res = lowest_spectrum(spec, sector, m=2, tol=1e-12, with_vectors=True)
                assert res.method == method
                for e, v in zip(res.eigenvalues, res.vectors):
                    x = embedded(v)
                    assert np.linalg.norm(href @ x - e * x) < 1e-9

    def test_m_above_the_space_names_it(self):
        spec = small_spec(2, 1, 0.5, (3,))
        assert len(lowest_spectrum(spec, "full", 16).eigenvalues) == 16
        with pytest.raises(ManyBodyError, match="m = 17 exceeds the full-space dimension 16"):
            lowest_spectrum(spec, "full", 17)
        with pytest.raises(ManyBodyError, match="m = 9 exceeds the sector dimension 8"):
            lowest_spectrum(spec, "even", 9)

    def test_deterministic_repeat(self):
        spec = above_dense_limit_spec()
        a = lowest_spectrum(spec, "even", m=2)
        b = lowest_spectrum(spec, "even", m=2)
        assert a.method == "lanczos"
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_lanczos_finds_levels_of_every_symmetry_class(self):
        # a start vector inside one symmetry class of the sector operator
        # would leave the other class's levels out of the Krylov space
        spec = ManyBodySpec.from_coupling(3, 1, 0.5, safety=2.5)
        for sector in ("even", "odd"):
            ref = scipy.linalg.eigvalsh(dense_block(spec, sector),
                                        subset_by_index=[0, 3])
            res = sector_lanczos(spec, sector, 4, tol=1e-11)
            assert np.max(np.abs(res.eigenvalues - ref)) < 1e-9

    def test_nonconvergence_raises_with_residuals(self, monkeypatch):
        spec = small_spec(3, 2, 1.0, (6, 4))
        monkeypatch.setattr(krylov, "MAX_MATVECS", 8)
        with pytest.raises(EigenConvergenceError) as err:
            sector_lanczos(spec, "even", 2, tol=1e-14)
        assert err.value.residuals is not None
        # the error crosses the process boundary of parallel_map whole
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is EigenConvergenceError and str(copy) == str(err.value)
        np.testing.assert_array_equal(copy.eigenvalues, err.value.eigenvalues)
        np.testing.assert_array_equal(copy.residuals, err.value.residuals)

    def test_softening_gap_beyond_critical_region(self):
        # the two lowest full-space levels approach degeneracy as g grows
        gaps = []
        for g in (0.4, 0.6, 0.8):
            spec = ManyBodySpec.from_coupling(5, 3, g, safety=2.5)
            rec = ground_splittings([spec], refine=False)[0]
            gaps.append(rec.delta)
        assert gaps[0] > gaps[1] > gaps[2]
        # bounded below and finite through the crossover
        assert all(np.isfinite(g) for g in gaps)


# ------------------------------------------------------------- splittings

class TestGroundSplitting:
    def test_decoupled_limit_equals_atomic_frequency(self):
        spec = small_spec(2, 2, 0.0, (2, 2), omega_atoms=(0.8, 0.8))
        rec = ground_splittings([spec], refine=False)[0]
        assert rec.delta == pytest.approx(0.8, abs=1e-12)

    def test_two_atom_splitting_single_mode(self):
        # converged value sits above the asymptotic closed form at g = 1;
        # the exact ratio is a frozen regression value from the dense oracle
        spec = ManyBodySpec.from_coupling(2, 1, 1.0)
        rec = ground_splittings([spec], tol=1e-3)[0]
        assert rec.converged is True  # a plain bool, as the JSON writers need
        assert rec.delta == pytest.approx(2.820630e-04, rel=1e-5)
        ratio = rec.delta / analytic_splitting_n2(1.0, 1.0, 1.0)
        assert 1.30 < ratio < 1.38

    def test_two_atom_splitting_two_modes_regression(self):
        # with the zone-boundary mode included the splitting grows by ~2.1x;
        # value frozen from converged dense runs at even cutoffs 8 and 12
        spec = ManyBodySpec.from_coupling(2, 2, 1.0, even_floor=8)
        rec = ground_splittings([spec], tol=1e-2)[0]
        assert rec.converged
        assert rec.delta == pytest.approx(5.8861e-04, rel=1e-3)

    def test_log_linear_decay_in_g_squared(self):
        recs = [ground_splittings([ManyBodySpec.from_coupling(2, 1, g)], refine=False)[0]
                for g in (0.9, 1.1, 1.3)]
        x = np.array([r.g**2 for r in recs])
        y = np.log([r.delta for r in recs])
        slopes = np.diff(y) / np.diff(x)
        assert np.all(slopes < -7.0)
        assert abs(slopes[1] - slopes[0]) < 0.6

    def test_stacked_specs_give_their_lone_records(self, monkeypatch):
        # three clean chains of one shape and a disordered one, refined: the
        # clean ones solve 608-state mirror-even halves and the disordered
        # one its 1,152-state sectors, one call of eight Lanczos columns and
        # one of their eight refined columns, each record the bytes of its
        # spec's lone splitting
        base = ManyBodySpec.from_coupling(3, 2, 0.8, even_floor=8)
        specs = [base.with_omega_atoms(w)
                 for w in ((0.8,) * 3, (1.0,) * 3, (0.9, 1.1, 1.0), (1.3,) * 3)]
        calls = []
        solve = manybody.sector_spectra

        def counted(columns, *a, **kw):
            calls.append([sec for _, sec in columns])
            return solve(columns, *a, **kw)

        monkeypatch.setattr(manybody, "sector_spectra", counted)
        stacked = ground_splittings(specs)
        folded = [("even", 1), ("odd", 1)]
        assert calls == [folded * 2 + list(SECTORS) + folded] * 2
        monkeypatch.undo()
        for spec, rec in zip(specs, stacked):
            assert rec == ground_splittings([spec])[0]
            assert rec.converged

    def test_record_fields(self):
        spec = ManyBodySpec.from_coupling(2, 1, 0.9)
        rec = ground_splittings([spec], refine=False)[0]
        assert rec.n_atoms == 2 and rec.n_modes == 1
        assert rec.delta == abs(rec.e_even - rec.e_odd)
        assert rec.delta_over_omega_atom == pytest.approx(rec.delta)
        assert not rec.converged and rec.delta_refined is None  # refinement skipped

    def test_floor_rule_counts_two_floor_splittings_as_converged(self):
        # the default cutoffs (64,) put delta at 1.4e-14, below the floor,
        # and the refined ones (80,) keep it there: converged, although the
        # two differ by far more than tol relative to each other
        spec = ManyBodySpec.from_coupling(2, 1, 2.6)
        assert spec.cutoffs == (64,)
        rec = ground_splittings([spec])[0]
        assert rec.below_floor and rec.converged
        # from (52,) to its refinement (65,) delta falls from 4.9e-11 to below
        # the floor: only one of the two is at the floor, so not converged
        coarse = spec.with_cutoffs(choose_cutoffs(2, 1, 2.6, safety=3.0))
        assert coarse.cutoffs == (52,)
        rec = ground_splittings([coarse])[0]
        assert not rec.below_floor and not rec.converged

    def test_seed_scatter_of_delta(self, monkeypatch):
        # criterion 6's N = 3, g = 1.3 point: delta 1.3e-11 against ground
        # energies near -14, so Ritz-value rounding alone moved it by over 1%
        # from seed to seed; Rayleigh quotients hold it to well under 0.2%
        spec = ManyBodySpec.from_coupling(3, 3, 1.3, even_floor=12)
        deltas = []
        for seed in (1, 2, 3):
            monkeypatch.setattr(krylov, "SEED", seed)
            deltas.append(ground_splittings([spec], refine=False)[0].delta)
        assert np.ptp(deltas) < 2e-3 * np.mean(deltas)


def _padded_by_full_index(base: Wavefunction, bumped: ManyBodySpec) -> np.ndarray:
    """A sector vector moved onto larger cutoffs state by state, through the
    full-space index, and taken to the real gauge of the larger sector."""
    old, spec = base.indexer, bumped
    occ = np.unravel_index(old.indices >> spec.n_atoms,
                           tuple(reversed(old.spec.mode_dims)))
    full = (np.ravel_multi_index(occ, tuple(reversed(spec.mode_dims))) * spec.spin_dim
            + (old.indices & (spec.spin_dim - 1)))
    op = HamiltonianEngine([(spec, old.sector)])
    x = np.zeros(op.dimension, dtype=complex)
    x[np.searchsorted(op.indexers[0].indices, full)] = base.data
    return (x * op.phase.conj()).real


class TestWarmStart:
    """Refinement solves start from the zero-padded smaller ground vector."""

    SPEC = ManyBodySpec.from_coupling(3, 3, 1.0, even_floor=8, safety=2.5)

    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_padded_vector_and_warm_solve(self, sector):
        bumped = self.SPEC.with_cutoffs(_refined_cutoffs(self.SPEC.cutoffs))
        base = lowest_spectrum(self.SPEC, sector, 1, with_vectors=True)
        e0, vec = base.eigenvalues[0], base.vectors[0]
        op = HamiltonianEngine([(bumped, sector)])
        x = _padded_by_full_index(vec, bumped)
        np.testing.assert_array_equal(_padded_start(op, vec, 0), x)
        # couplings of the padded vector stay inside its own support, so its
        # Rayleigh quotient is the smaller solve's energy
        assert x @ op.matvec(x[None])[0] / (x @ x) == pytest.approx(e0, rel=1e-12)

        cold = lowest_spectrum(bumped, sector, 1)
        warm = sector_spectra([(bumped, sector)], 1, starts=[vec])[0]
        assert cold.method == warm.method == "lanczos"
        assert warm.eigenvalues[0] == pytest.approx(cold.eigenvalues[0], rel=1e-12)
        assert warm.iterations < cold.iterations

    def test_mismatched_start_rejected(self):
        spec = self.SPEC
        bumped = spec.with_cutoffs(_refined_cutoffs(spec.cutoffs))
        even = lowest_spectrum(spec, "even", 1, with_vectors=True).vectors[0]
        other_g = ManyBodySpec.from_coupling(3, 3, 0.9, cutoffs=spec.cutoffs)
        larger = lowest_spectrum(bumped, "even", 1, with_vectors=True).vectors[0]
        for target, sector, start in ((bumped, "odd", even),
                                      (other_g, "even", even),
                                      (spec, "even", larger)):
            with pytest.raises(ManyBodyError):
                sector_spectra([(target, sector)], 1, starts=[start])


    def test_starts_of_the_wrong_length_rejected(self):
        # three starts for two columns once raised a bare IndexError, and
        # one start krylov's ValueError
        columns = [(self.SPEC, s) for s in SECTORS]
        vec = lowest_spectrum(self.SPEC, "even", 1, with_vectors=True).vectors[0]
        for starts in ([vec], [vec, vec, vec]):
            with pytest.raises(ManyBodyError, match=f"{len(starts)} starts for 2 columns"):
                sector_spectra(columns, 1, starts=starts)


class TestConvergenceScan:
    """Splittings and sector energies along increasing cutoff schedules."""

    def test_default_style_schedule_converges(self):
        # the last two steps of the safety 2, 3, 4 schedule agree to 1e-3
        spec = ManyBodySpec.from_coupling(2, 1, 1.0)
        a, b = (ground_splittings([spec.with_cutoffs(choose_cutoffs(2, 1, 1.0, safety=s))],
                                  refine=False)[0].delta for s in (3.0, 4.0))
        assert abs(a - b) <= 1e-3 * max(a, b)

    def test_sector_energies_variational_in_cutoffs(self):
        spec = ManyBodySpec.from_coupling(2, 2, 1.0)
        schedule = [(10, 3), (16, 5), (24, 8), (36, 10)]
        levels = [[lowest_spectrum(spec.with_cutoffs(c), s).eigenvalues[0]
                   for s in ("even", "odd")] for c in schedule]
        for a, b in zip(levels, levels[1:]):
            assert b[0] <= a[0] + 1e-9
            assert b[1] <= a[1] + 1e-9


def test_ground_energy_approaches_ferromagnetic_value():
    # E0 relative to the displaced-configuration energy tightens as g grows
    devs = []
    for g in (1.0, 1.5, 2.0):
        spec = ManyBodySpec.from_coupling(2, 1, g)
        e0 = lowest_spectrum(spec, "even", 1).eigenvalues[0]
        e_ferro = -4.0 * g * g  # two atoms, one mode, resonant units
        devs.append(abs(e0 - e_ferro) / abs(e_ferro))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.03


def test_krylov_on_plain_matrix():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 200))
    h = (a + a.T) / 2
    # a stack of one: h is symmetric, so the row x @ h is h @ x
    res = lowest_eigenpairs(lambda x: x @ h, 200, 3, tol=1e-12,
                            scale=np.array([np.linalg.norm(h, 2)]))
    vals, vecs = res.eigenvalues[0], res.eigenvectors[0]
    ref = np.linalg.eigvalsh(h)[:3]
    assert np.max(np.abs(vals - ref)) < 1e-10
    for i in range(3):
        x = vecs[:, i]
        assert np.linalg.norm(h @ x - vals[i] * x) < 1e-9


def test_krylov_on_real_symmetric_matrix_stays_real():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((150, 150))
    h = (a + a.T) / 2
    res = lowest_eigenpairs(lambda x: x @ h, 150, 3, tol=1e-12,
                            scale=np.array([np.linalg.norm(h, 2)]))
    vals, vecs = res.eigenvalues[0], res.eigenvectors[0]
    assert vecs.dtype == np.float64
    assert np.max(np.abs(vals - np.linalg.eigvalsh(h)[:3])) < 1e-10
    for i in range(3):
        x = vecs[:, i]
        assert np.linalg.norm(h @ x - vals[i] * x) < 1e-9


def test_krylov_exhausted_space_returns_every_pair():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20))
    h = (a + a.T) / 2
    res = lowest_eigenpairs(lambda x: x @ h, 20, 20, tol=1e-12,
                            scale=np.array([np.linalg.norm(h, 2)]))
    vals, x = res.eigenvalues[0], res.eigenvectors[0]
    assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-10
    assert np.max(np.linalg.norm(h @ x - x * vals, axis=0)) < 1e-9


def test_krylov_start_on_one_level_still_finds_the_lowest():
    # a start that is exactly an eigenvector spans an invariant subspace;
    # the seeded noise mixed into it is what lets the solve leave it
    diag = np.random.default_rng(8).permutation(np.linspace(-1.0, 2.0, 300))
    fifth = np.argsort(diag)[4]
    res = lowest_eigenpairs(lambda x: diag * x, 300, 1, tol=1e-12, scale=np.array([2.0]),
                            start=np.eye(300)[[fifth]])
    assert res.eigenvalues[0, 0] == pytest.approx(-1.0, abs=1e-10)
    assert abs(res.eigenvectors[0, np.argmin(diag), 0]) == pytest.approx(1.0, abs=1e-9)


def test_krylov_counts_every_operator_call():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((300, 300))
    h = (a + a.T) / 2
    calls = []

    def matvec(x):
        calls.append(1)
        return x @ h

    res = lowest_eigenpairs(matvec, 300, 4, tol=1e-12,
                            scale=np.array([np.linalg.norm(h, 2)]))
    assert res.restarts > 0
    assert res.matvec_count == len(calls)


def test_krylov_continues_past_an_invariant_subspace():
    # two levels: the Krylov space of the start closes after two steps, so a
    # third pair needs the seeded direction taken at the breakdown
    diag = np.random.default_rng(9).permutation(np.repeat([-1.0, 1.0], [50, 100]))
    res = lowest_eigenpairs(lambda x: diag * x, 150, 3, tol=1e-12, scale=np.array([1.0]))
    np.testing.assert_allclose(res.eigenvalues[0], [-1.0, -1.0, 1.0], atol=1e-12)
    x = res.eigenvectors[0]
    assert np.max(np.abs(x.T @ x - np.eye(3))) < 1e-12
    assert np.max(res.residuals) < 1e-11


def _clustered_matrix(n=2000, seed=11):
    """Dense symmetric matrix with a random eigenbasis: a three-fold cluster
    at spacing 1e-7 at the bottom, the other levels uniform in [0.002, 1]."""
    rng = np.random.default_rng(seed)
    levels = np.concatenate([[0.0, 1e-7, 2e-7], rng.uniform(0.002, 1.0, n - 3)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (q * levels) @ q.T
    return (h + h.T) / 2


@pytest.fixture(scope="module")
def clustered():
    h = _clustered_matrix()
    return h, np.linalg.eigvalsh(h)


@pytest.mark.parametrize("shift", [0.0, 1e4])
@pytest.mark.parametrize("k", [3, 6])
def test_krylov_resolves_cluster_through_restarts(clustered, shift, k):
    # the shift makes the recurrence cancel most of every A q, leaving its
    # rounding at eps * 1e4 for the Gram-Schmidt pass to remove; a ghost
    # copy of a converged level would show as non-orthonormal Ritz vectors
    h, ref = clustered
    scale = 1.0 + shift
    res = lowest_eigenpairs(lambda x: x @ h + shift * x, len(h), k, tol=1e-12,
                            scale=np.array([scale]))
    assert res.restarts >= 7
    assert np.max(np.abs(res.eigenvalues[0] - (ref[:k] + shift))) < 1e-10 * scale
    x = res.eigenvectors[0]
    assert np.max(np.abs(x.T @ x - np.eye(k))) < 1e-12


def _krylov_solve(columns, k):
    """The engine of a stack of (spec, sector) columns, and the k lowest
    pairs of each column straight from the Krylov solver."""
    op = HamiltonianEngine(columns)
    return op, lowest_eigenpairs(op.matvec, op.dimension, k, tol=1e-11,
                                 scale=op.norm_bound())


def test_krylov_update_runs_only_where_rounding_left_work():
    # the spectrum_n5 benchmark's g = 0.5 even sector, three pairs: the
    # recurrence leaves w orthogonal to rounding on most steps, and the
    # vectors of a solve that skipped the update there stay orthonormal
    spec = ManyBodySpec.from_coupling(5, 3, 0.5, safety=2.5)
    op, res = _krylov_solve([(spec, "even")], 3)
    assert op.dimension == 13_680
    updates, matvecs = res.column_updates[0], res.column_matvecs[0]
    # the matvecs are the steps plus three per certification
    assert 0 < updates and 2 * updates < matvecs
    x = res.eigenvectors[0]
    assert np.max(np.abs(x.T @ x - np.eye(3))) < 1e-12


def test_krylov_levels_with_skipped_updates_match_dense():
    # an N = 4, N_m = 2 sector of 1,400 states, solved for three levels
    spec = small_spec(4, 2, 1.0, (24, 6))
    op, res = _krylov_solve([(spec, "even")], 3)
    assert op.dimension == 1400
    assert res.column_updates[0] < res.column_matvecs[0]
    scale = op.norm_bound()[0]
    ref = np.linalg.eigvalsh(op.dense()[0])[:3]
    assert np.max(np.abs(res.eigenvalues[0] - ref)) < 1e-10 * scale


@pytest.mark.parametrize("sector", ["even", "odd"])
def test_sector_ground_solve_matvec_budget(sector):
    # the splitting_n3 benchmark point: about 5.5k states per sector, which
    # converge in 104 (even) and 100 (odd) matvecs; a cheaper step must not
    # slow the iteration
    spec = ManyBodySpec.from_coupling(3, 3, 0.7, even_floor=8, safety=2.5)
    res = lowest_spectrum(spec, sector, 1)
    assert res.method == "lanczos"
    assert res.iterations <= 110


def test_krylov_energy_target_bounds_the_eigenvalues():
    # a Kato-Temple bound at or below the target stops the solve before the
    # residual gate would, and the energies keep to the target
    rng = np.random.default_rng(12)
    a = rng.standard_normal((400, 400))
    h = (a + a.T) / 2
    ref = np.linalg.eigvalsh(h)
    scale = np.array([np.linalg.norm(h, 2)])
    for k in (1, 2):
        gated = lowest_eigenpairs(lambda x: x @ h, 400, k, tol=1e-13, scale=scale)
        bounded = lowest_eigenpairs(lambda x: x @ h, 400, k, tol=1e-13, scale=scale,
                                    energy_tol=1e-10)
        assert bounded.matvec_count < gated.matvec_count
        assert np.max(np.abs(bounded.eigenvalues[0] - ref[:k])) <= 1e-10
        assert np.max(bounded.residuals) > 10 * 1e-13 * scale[0]


def test_krylov_energy_target_on_a_degenerate_level_keeps_the_residual_gate():
    # the lowest level holds 50 states and the Krylov space reaches a second
    # copy of it after the first breakdown, so the next Ritz value sits on
    # the first and there is no positive gap: the solve is the gated one
    diag = np.random.default_rng(9).permutation(np.repeat([-1.0, 1.0], [50, 100]))
    for k in (1, 2):
        gated = lowest_eigenpairs(lambda x: diag * x, 150, k, tol=1e-12, scale=np.array([1.0]))
        bounded = lowest_eigenpairs(lambda x: diag * x, 150, k, tol=1e-12,
                                    scale=np.array([1.0]), energy_tol=1e-3)
        np.testing.assert_allclose(bounded.eigenvalues[0], [-1.0] * k, atol=1e-12)
        assert np.max(bounded.residuals) < 10 * 1e-12
        assert bounded.eigenvalues.tobytes() == gated.eigenvalues.tobytes()
        assert bounded.matvec_count == gated.matvec_count


#: (N, N_m, g grid, even_floor, safety, tol) of criterion 5's N = 2 grid,
#: criterion 6's N = 3 grid and the splitting_n3 benchmark's grid
SPLITTING_GRIDS = {
    "criterion5": (2, 1, (0.8, 1.0, 1.2, 1.5), 4, 4.0, 1e-3),
    "criterion6_n3": (3, 3, (0.9, 1.0, 1.1, 1.2, 1.3), 12, 4.0, 1e-2),
    "splitting_n3": (3, 3, (0.7, 1.0), 8, 2.5, 1e-2),
}


@pytest.mark.parametrize("grid", sorted(SPLITTING_GRIDS))
def test_certified_ground_energies_match_tight_residual_solves(grid, monkeypatch):
    n, nm, gs, floor, safety, tol = SPLITTING_GRIDS[grid]
    specs = [ManyBodySpec.from_coupling(n, nm, g, even_floor=floor, safety=safety)
             for g in gs]
    records = [ground_splittings([s], tol=tol)[0] for s in specs]
    for spec, rec in zip(specs, records):
        tight = sector_spectra(ground_columns(spec), 1, tol=1e-13)
        for e, ref in zip((rec.e_even, rec.e_odd), tight):
            assert abs(e - ref.eigenvalues[0]) <= 1e-14 * manybody._omega_ref(spec)
    # with the residual gate alone the flags come out the same
    solve = manybody.sector_spectra
    monkeypatch.setattr(manybody, "sector_spectra",
                        lambda *a, energy_tol=None, **kw: solve(*a, **kw))
    gated = [ground_splittings([s], tol=tol)[0] for s in specs]
    assert [(r.converged, r.below_floor) for r in records] == [
        (r.converged, r.below_floor) for r in gated]


def _refined_solves(monkeypatch, spec, tol):
    """The record of ``ground_splittings([spec], tol)``, and the columns,
    results and ``energy_tol`` of its refined ``sector_spectra`` call."""
    calls = []
    solve = manybody.sector_spectra

    def recorded(columns, *a, energy_tol=None, **kw):
        calls.append((columns, solve(columns, *a, energy_tol=energy_tol, **kw), energy_tol))
        return calls[-1][1]

    monkeypatch.setattr(manybody, "sector_spectra", recorded)
    rec = ground_splittings([spec], tol=tol)[0]
    monkeypatch.undo()
    return rec, calls[1]


@pytest.mark.parametrize("grid", ["criterion6_n3", "splitting_n3"])
def test_refined_energies_are_inside_their_target(grid, monkeypatch):
    # each refined energy stops at REFINE_SHARE of tol times the base delta,
    # or at a tenth of the floor where that is larger (criterion 6 at g = 1.3,
    # delta 1.3e-11), so the refined splitting is off by at most twice that
    # from a tight one
    n, nm, gs, floor, safety, tol = SPLITTING_GRIDS[grid]
    for g in gs:
        spec = ManyBodySpec.from_coupling(n, nm, g, even_floor=floor, safety=safety)
        rec, (columns, refined, energy_tol) = _refined_solves(monkeypatch, spec, tol)
        target = manybody._refined_energy_tol(spec, rec.delta, tol)
        assert energy_tol == [target, target]
        tight = sector_spectra(columns, 1, tol=1e-13)
        for r, ref in zip(refined, tight):
            assert abs(r.eigenvalues[0] - ref.eigenvalues[0]) <= target
        d2 = abs(tight[0].eigenvalues[0] - tight[1].eigenvalues[0])
        assert abs(rec.delta_refined - d2) <= 2 * target


def test_refined_target_of_a_floor_splitting_is_the_base_one(monkeypatch):
    # at g = 2.6 the base delta, 1.4e-14, is below the floor, so its refined
    # columns keep the floor's target; at g = 1.0 they take the relative one
    tol = 1e-2
    below = ManyBodySpec.from_coupling(2, 1, 2.6)
    rec, (_, _, energy_tol) = _refined_solves(monkeypatch, below, tol)
    assert rec.below_floor
    assert energy_tol == [manybody._energy_tol(below)] * 2
    above = ManyBodySpec.from_coupling(2, 1, 1.0)
    rec, (_, _, energy_tol) = _refined_solves(monkeypatch, above, tol)
    assert not rec.below_floor
    assert energy_tol == [manybody.REFINE_SHARE * tol * rec.delta] * 2
    assert energy_tol[0] > manybody._energy_tol(above)


def _grid_matvecs(monkeypatch, grid) -> int:
    """Operator calls of one ``SPLITTING_GRIDS`` grid, a spec at a time."""
    n, nm, gs, floor, safety, tol = SPLITTING_GRIDS[grid]
    calls = []
    matvec = HamiltonianEngine.matvec

    def counted(self, x):
        calls.append(len(x))
        return matvec(self, x)

    monkeypatch.setattr(HamiltonianEngine, "matvec", counted)
    for g in gs:
        ground_splittings([ManyBodySpec.from_coupling(n, nm, g, even_floor=floor,
                                                      safety=safety)], tol=tol)
    return len(calls)


def test_splitting_sweep_matvec_budget(monkeypatch):
    # the splitting_n3 benchmark grid: 477 operator calls under the residual
    # gate alone, 389 with every energy certified to a tenth of the floor,
    # 285 with the refined ones at REFINE_SHARE of the convergence threshold
    # and 273 with the start noise at 1e-6
    assert _grid_matvecs(monkeypatch, "splitting_n3") <= 287


def test_criterion6_matvec_budget(monkeypatch):
    # criterion 6's N = 3 grid, in the same steps: 1,658, 1,541 and 1,268
    assert _grid_matvecs(monkeypatch, "criterion6_n3") <= 1331


class TestStackedSolves:
    """Columns solved as one stack give the bytes of their lone solves."""

    def test_stacked_rows_are_lone_products(self):
        spec = small_spec(3, 2, 1.1, (5, 3))
        columns = [(spec.with_omega_atoms(w), s)
                   for w, s in (((0.8, 1.15, 0.95), "even"), ((1.0, 1.0, 1.0), "odd"),
                                ((1.3, 0.7, 1.1), "odd"))]
        stack = HamiltonianEngine(columns)
        x = np.random.default_rng(4).standard_normal((3, stack.dimension))
        hx = stack.matvec(x)
        dense = stack.dense()
        for i, (c, s) in enumerate(columns):
            lone = HamiltonianEngine([(c, s)])
            assert hx[i].tobytes() == lone.matvec(x[i][None])[0].tobytes()
            assert dense[i].tobytes() == lone.dense()[0].tobytes()
            assert stack.norm_bound()[i] == lone.norm_bound()[0]
        with pytest.raises(ManyBodyError):
            stack.matvec(x[0])
        with pytest.raises(ManyBodyError):
            HamiltonianEngine([(spec, "even"), (spec.with_cutoffs((5, 4)), "even")])

    def test_empty_column_list_rejected(self):
        for call in (HamiltonianEngine, sector_spectra, ground_splittings):
            with pytest.raises(ManyBodyError, match="at least one"):
                call([])

    @pytest.mark.parametrize("spec, sectors", [
        (small_spec(), SECTORS),
        (ManyBodySpec.from_coupling(3, 2, 1.0), SECTORS),
        (ManyBodySpec.from_coupling(3, 2, 1.0), [("even", 1), ("odd", 1)]),
    ], ids=["dense", "lanczos", "lanczos-mirror"])
    def test_solve_bytes_admit_one_column_exactly(self, monkeypatch, spec, sectors):
        # each column is charged its whole parity sector, a mirror-even half
        # too: its dense matrix, or its Krylov basis plus the next vector
        sector = spec.dimension // 2
        rows = sector if sector <= DENSE_LIMIT else krylov.basis_size(sector, 2) + 1
        one_column = 8 * sector * rows
        columns = [(spec, s) for s in sectors]
        monkeypatch.setattr(manybody, "SOLVE_BYTES", one_column)
        assert len(sector_spectra(columns, 2)) == 2
        monkeypatch.setattr(manybody, "SOLVE_BYTES", one_column - 1)
        with pytest.raises(ManyBodyError, match=f"would hold {one_column} bytes"):
            sector_spectra(columns, 2)

    def test_oversized_refinement_refused_before_any_engine(self, tmp_path, monkeypatch,
                                                              capsys):
        # the base sectors (2,376,000 states) are admitted and the refined
        # ones (6,064,800) are not: the sweep is refused before the base solve
        class Built(Exception):
            pass

        def built(self, columns):
            raise Built

        monkeypatch.setattr(HamiltonianEngine, "__init__", built)
        spec = ManyBodySpec.from_coupling(4, 4, 1.3, even_floor=14)
        assert spec.dimension // 2 == 2_376_000
        with pytest.raises(ManyBodyError, match="sector of 6064800 states"):
            ground_splittings([spec], tol=0.01)
        assert cli_main(["splitting-sweep", "--n", "4", "--n-m", "4", "--g-grid", "[1.3]",
                         "--even-floor", "14", "--tol", "0.01",
                         "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: sector of 6064800 states")
        assert not any(tmp_path.iterdir())

    def test_two_shapes_rejected_across_stacks(self, monkeypatch):
        # one column per stack: each stack alone is of one shape, the call is not
        monkeypatch.setattr(manybody, "STACK_BYTES", 1)
        spec = small_spec()
        with pytest.raises(ManyBodyError):
            sector_spectra([(spec, "even"), (small_spec(g=1.1), "even")])
        with pytest.raises(ManyBodyError):
            ground_splittings([spec, spec.with_cutoffs((4, 2))])

    def test_stacked_operators_match_lone_solves(self):
        # a lockstep stack of two plain matrices of norms 40x apart, each
        # tested against its own scale; one converges first and keeps the
        # pairs it was certified with
        rng = np.random.default_rng(12)
        hs = [(a + a.T) / 2 for a in rng.standard_normal((2, 300, 300))]
        hs[1][:3, :3] += np.diag([-30.0, -29.0, -28.0])
        hs[1] *= 40.0
        scales = [float(np.linalg.norm(h, 2)) for h in hs]
        lone = [lowest_eigenpairs(lambda x, h=h: (h @ x[0])[None], 300, 3, tol=1e-12,
                                  scale=np.array([sc]))
                for h, sc in zip(hs, scales)]
        stacked = lowest_eigenpairs(lambda x: np.stack([h @ r for h, r in zip(hs, x)]),
                                    300, 3, tol=1e-12, scale=np.array(scales))
        assert lone[0].matvec_count != lone[1].matvec_count
        assert stacked.matvec_count >= max(r.matvec_count for r in lone)
        for i, r in enumerate(lone):
            assert stacked.eigenvalues[i].tobytes() == r.eigenvalues[0].tobytes()
            assert stacked.residuals[i].tobytes() == r.residuals[0].tobytes()
            assert np.array_equal(stacked.eigenvectors[i], r.eigenvectors[0])
            assert stacked.column_matvecs[i] == r.matvec_count

    def test_columns_skip_updates_on_their_own(self):
        # a disorder stack: columns certified after the same matvecs ran the
        # Gram-Schmidt update on different numbers of steps, so they skipped
        # it on different steps, and each keeps the bits of its lone solve
        base = ManyBodySpec.from_coupling(3, 2, 1.0)
        freqs = sample_frequencies(DisorderEnsembleSpec(base, 0.3, 4, 5))
        columns = [(base.with_omega_atoms(w), "even") for w in freqs]
        _, stacked = _krylov_solve(columns, 1)
        same = stacked.column_matvecs == stacked.column_matvecs[0]
        assert np.count_nonzero(same) > 1
        assert len(set(stacked.column_updates[same])) > 1
        for i, column in enumerate(columns):
            _, lone = _krylov_solve([column], 1)
            assert stacked.eigenvalues[i].tobytes() == lone.eigenvalues[0].tobytes()
            assert stacked.residuals[i].tobytes() == lone.residuals[0].tobytes()
            assert stacked.eigenvectors[i].tobytes() == lone.eigenvectors[0].tobytes()
            assert stacked.column_matvecs[i] == lone.column_matvecs[0]
            assert stacked.column_updates[i] == lone.column_updates[0]

    def test_stacked_sectors_match_lone_solves(self, monkeypatch):
        # three levels per sector at N = 5: the sectors converge at different
        # steps, and a stack holds both only above the default byte budget
        spec = ManyBodySpec.from_coupling(5, 3, 0.5, safety=2.5)
        lone = [lowest_spectrum(spec, s, 3) for s in SECTORS]
        assert lone[0].iterations != lone[1].iterations
        monkeypatch.setattr(manybody, "STACK_BYTES", 2**40)
        stacked = sector_spectra([(spec, s) for s in SECTORS], 3)
        for a, b in zip(lone, stacked):
            assert a.method == b.method == "lanczos"
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert a.residual_norms.tobytes() == b.residual_norms.tobytes()
            assert a.iterations == b.iterations

    @pytest.mark.parametrize("spec, method, folded", [
        (ManyBodySpec.from_coupling(2, 1, 1.2), "dense", False),
        (ManyBodySpec.from_coupling(2, 2, 1.2, even_floor=6), "lanczos", False),
        # N = 2: the mirror-even halves hold 50 and 49 states, so no two
        # neighbouring columns share a stack
        (ManyBodySpec.from_coupling(2, 1, 1.2), "dense", True),
        (ManyBodySpec.from_coupling(2, 2, 1.2, even_floor=12), "lanczos", True),
        # N = 3: both halves hold 407 states, and all six share one stack
        (ManyBodySpec.from_coupling(3, 2, 1.0), "lanczos", True),
    ], ids=["spec0-dense", "spec1-lanczos", "spec2-dense-mirror", "spec3-lanczos-mirror",
            "spec4-lanczos-mirror"])
    def test_byte_budget_leaves_the_bytes(self, monkeypatch, spec, method, folded):
        n = spec.n_atoms
        if folded:
            columns = [(spec.with_omega_atoms((w,) * n), (s, 1))
                       for w in (0.7, 1.0, 1.2) for s in SECTORS]
        else:
            columns = [(spec.with_omega_atoms(w), s)
                       for w in ((0.7, 1.3), (1.0, 1.0), (1.2, 0.9)) for s in SECTORS]
        runs = []
        for budget in (1, 2**40):  # stacks of one, and stacks as wide as allowed
            monkeypatch.setattr(manybody, "STACK_BYTES", budget)
            runs.append(sector_spectra(columns, 2, with_vectors=True))
        for a, b in zip(*runs):
            assert a.method == b.method == method
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert a.residual_norms.tobytes() == b.residual_norms.tobytes()
            assert a.iterations == b.iterations
            for u, v in zip(a.vectors, b.vectors):
                assert u.data.tobytes() == v.data.tobytes()

    def test_mixed_stack_with_starts_gives_refined_energies(self, monkeypatch):
        # N = 3, where the mirror-even halves of both sectors hold 407
        # states at the base cutoffs and 690 at the refined ones
        spec = ManyBodySpec.from_coupling(3, 2, 1.0)
        bumped = spec.with_cutoffs(_refined_cutoffs(spec.cutoffs))
        columns = ground_columns(bumped)
        dim = HamiltonianEngine(columns).dimension
        # the refined even and odd columns fit one stack
        assert 2 * 8 * dim * (krylov.basis_size(dim, 1) + 1) <= manybody.STACK_BYTES
        solved = []
        solve = manybody.sector_spectra

        def recorded(columns, *a, **kw):
            solved.append(solve(columns, *a, **kw))
            return solved[-1]

        monkeypatch.setattr(manybody, "sector_spectra", recorded)
        rec = ground_splittings([spec])[0]
        base, refined = solved
        # the lone solves take the refined energy target of ground_splittings
        target = manybody._refined_energy_tol(spec, rec.delta, 1e-3)
        for column, b, r in zip(columns, base, refined):
            lone = sector_spectra([column], 1, starts=[b.vectors[0]], energy_tol=[target])[0]
            assert r.sector == column[1] and r.method == "lanczos"
            assert lone.eigenvalues.tobytes() == r.eigenvalues.tobytes()
            assert lone.iterations == r.iterations


# ------------------------------------------------------------ mirror fold

#: small cutoffs per N for the oracle's mirror checks, 96 to 512 states
MIRROR_CUTOFFS = {2: (5, 3), 3: (4, 2, 2), 4: (3, 1, 1, 1)}


def mirror_even_block(spec, href, sector):
    """The oracle H on one parity sector, and on the R = +1 half of that
    sector in an orthonormal basis of the half."""
    sel = np.flatnonzero(parity_diagonal(spec) == (1 if sector == "even" else -1))
    whole = href[np.ix_(sel, sel)]
    w, v = np.linalg.eigh(mirror_operator(spec)[np.ix_(sel, sel)].real)
    v = v[:, w > 0]
    return whole, v.T @ whole @ v


class TestMirrorFold:
    """Clean-chain ground pairs solved in the mirror-even half of each
    parity sector, checked against the Kronecker mirror of the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mirror_commutes_with_the_oracle_hamiltonian(self, n):
        spec = ManyBodySpec.from_coupling(n, n, 0.8, cutoffs=MIRROR_CUTOFFS[n])
        href, r = dense_hamiltonian(spec), mirror_operator(spec)
        assert np.max(np.abs(r @ href - href @ r)) < 1e-13
        assert np.max(np.abs(r @ r - np.eye(len(r)))) < 1e-15
        # R keeps the parity, so it acts within each sector
        signs = parity_diagonal(spec)
        assert np.max(np.abs(signs[:, None] * r - r * signs[None, :])) == 0.0

    def test_sector_ground_states_are_mirror_even(self):
        # the premise of the fold, down to weak coupling, where no
        # asymptotic argument applies; at g = 0 the lowest level of one
        # sector also holds R-odd states, and the R = +1 half still reaches it
        for n, cutoffs in MIRROR_CUTOFFS.items():
            for nm in range(1, n + 1):
                for g in (0.0, 0.1, 0.3, 0.6, 1.0):
                    spec = ManyBodySpec.from_coupling(n, nm, g, cutoffs=cutoffs[:nm])
                    href = dense_hamiltonian(spec)
                    for sector in SECTORS:
                        whole, half = mirror_even_block(spec, href, sector)
                        lowest = np.linalg.eigvalsh(whole)[0]
                        assert np.linalg.eigvalsh(half)[0] == pytest.approx(
                            lowest, rel=1e-12, abs=1e-12), (n, nm, g, sector)

    def test_folded_dense_is_the_oracle_mirror_even_block(self):
        # every level of the folded dense route, and its vectors unfolded
        # onto the parity sector are R-even eigenvectors of the oracle
        for n, nm in ((2, 2), (3, 3), (4, 2)):
            spec = ManyBodySpec.from_coupling(n, nm, 0.7, cutoffs=MIRROR_CUTOFFS[n][:nm])
            href, r = dense_hamiltonian(spec), mirror_operator(spec)
            for sector in SECTORS:
                want = np.linalg.eigvalsh(mirror_even_block(spec, href, sector)[1])
                res = sector_spectra([(spec, (sector, 1))], len(want), with_vectors=True)[0]
                assert res.method == "dense" and res.sector == (sector, 1)
                np.testing.assert_allclose(res.eigenvalues, want, rtol=0, atol=1e-12)
                assert all(wf.indexer.sector == sector for wf in res.vectors)
                vecs = np.column_stack([embedded(wf) for wf in res.vectors])
                np.testing.assert_allclose(r @ vecs, vecs, rtol=0, atol=1e-13)
                np.testing.assert_allclose(href @ vecs, vecs * res.eigenvalues,
                                           rtol=0, atol=1e-11)

    def test_folded_ground_energies_match_the_parity_sectors(self):
        # criterion 5's grid and the splitting_n3 benchmark grid, at their
        # base and refined cutoffs
        specs = [ManyBodySpec.from_coupling(2, 1, g) for g in (0.8, 1.0, 1.2, 1.5)]
        specs += [ManyBodySpec.from_coupling(3, 3, g, even_floor=8, safety=2.5)
                  for g in (0.7, 1.0)]
        for base in specs:
            for spec in (base, base.with_cutoffs(_refined_cutoffs(base.cutoffs))):
                whole = sector_spectra([(spec, s) for s in SECTORS], 1)
                half = sector_spectra(ground_columns(spec), 1)
                for a, b in zip(whole, half):
                    assert b.sector == (a.sector, 1)
                    assert b.eigenvalues[0] == pytest.approx(a.eigenvalues[0], rel=1e-12)

    def test_mirror_columns_need_equal_frequencies(self):
        spec = small_spec(3, 2, 0.9, (4, 2))
        # mirror-symmetric but unequal frequencies still break the clean chain
        tilted = spec.with_omega_atoms((0.9, 1.0, 0.9))
        for call in (HamiltonianEngine, sector_spectra):
            with pytest.raises(ManyBodyError, match="equal atomic frequencies"):
                call([(tilted, ("even", 1))])
        for label in (("even", -1), ("full", 1), ("even",), "mirror"):
            with pytest.raises(ManyBodyError, match="sector must be"):
                sector_spectra([(spec, label)])
        assert ground_columns(spec) == [(spec, ("even", 1)), (spec, ("odd", 1))]
        assert ground_columns(tilted) == [(tilted, "even"), (tilted, "odd")]

    def test_even_n_halves_differ_in_dimension(self):
        # N = 2 at cutoff 32: the mirror-even halves of the 66-state sectors
        # hold 50 and 49 states, so one engine cannot stack them
        spec = ManyBodySpec.from_coupling(2, 1, 1.2)
        assert spec.cutoffs == (32,)
        assert [HamiltonianEngine([c]).dimension for c in ground_columns(spec)] == [50, 49]
        with pytest.raises(ManyBodyError, match="dimension"):
            HamiltonianEngine(ground_columns(spec))


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_half_dimension_is_half_the_sector_plus_the_trace(self, n):
        # (D + tr R) / 2 from the spin tables and row signs alone, against
        # the fold's own count and, up to N = 3, the oracle's trace of R;
        # at N = 1 R is the identity and the half is the whole sector
        for nm in range(1, n + 1):
            for cutoffs in ((2,) * nm, (3,) * nm, (3, 2, 3, 2, 1)[:nm]):
                spec = ManyBodySpec.from_coupling(n, nm, 0.8, cutoffs=cutoffs)
                signs = parity_diagonal(spec) if n <= 3 else None
                for sector, want in (("even", 1), ("odd", -1)):
                    half = _column_dimension(spec, (sector, 1))
                    assert half == _mirror_fold(BasisIndexer(spec, sector))[0].size
                    if n == 1:
                        assert half == spec.dimension // 2
                    if signs is not None:
                        sel = signs == want
                        trace = np.trace(mirror_operator(spec)[np.ix_(sel, sel)]).real
                        assert half == round((sel.sum() + trace) / 2)

    @pytest.mark.parametrize("cutoff, method", [(40, "dense"), (900, "lanczos")])
    def test_mixed_kinds_solve_in_two_stacks(self, monkeypatch, cutoff, method):
        # at N = 1 R is the identity, so a parity sector and its mirror-even
        # half share a dimension and only their kind keeps them apart
        spec = ManyBodySpec.from_coupling(1, 1, 0.8, cutoffs=(cutoff,))
        folded = [("even", 1), ("odd", 1)]
        columns = [(spec, sec) for sec in list(SECTORS) + folded]
        with pytest.raises(ManyBodyError, match="not both"):
            HamiltonianEngine(columns[1:3])
        stacks = []
        build = HamiltonianEngine.__init__

        def recorded(self, cols):
            stacks.append([sec for _, sec in cols])
            build(self, cols)

        monkeypatch.setattr(HamiltonianEngine, "__init__", recorded)
        mixed = sector_spectra(columns, 2, with_vectors=True)
        assert stacks == [list(SECTORS), folded]
        for column, r in zip(columns, mixed):
            lone = sector_spectra([column], 2, with_vectors=True)[0]
            assert r.method == lone.method == method and r.sector == column[1]
            assert r.eigenvalues.tobytes() == lone.eigenvalues.tobytes()
            assert r.residual_norms.tobytes() == lone.residual_norms.tobytes()
            assert r.iterations == lone.iterations
            for u, v in zip(r.vectors, lone.vectors):
                assert u.data.tobytes() == v.data.tobytes()


def test_splittings_and_fidelity_build_no_index_table(monkeypatch):
    # the splitting_n3 benchmark grid, one ground_splittings call per g as
    # the sweep makes them, and a fidelity: each engine folds its own two
    # labels, and nothing reads a sector's full-space indices
    built, folds = [], []
    monkeypatch.setattr(BasisIndexer, "indices",
                        property(lambda self: built.append(self.sector)))
    fold = manybody._mirror_fold
    monkeypatch.setattr(manybody, "_mirror_fold",
                        lambda basis: folds.append(basis.sector) or fold(basis))
    for g in (0.7, 1.0):
        spec = ManyBodySpec.from_coupling(3, 3, g, even_floor=8, safety=2.5)
        assert ground_splittings([spec], tol=1e-2)[0].converged
    assert folds == list(SECTORS) * 4
    spec = ManyBodySpec.from_coupling(3, 2, 1.0)
    pair = [r.vectors[0] for r in sector_spectra(ground_columns(spec), 1, with_vectors=True)]
    assert doublet_overlap(pair).fidelity > 0.9
    assert built == []


def square(x):
    return x * x


def reciprocal(x):
    return 1 / x


def test_parallel_map_keeps_order():
    assert parallel_map(square, range(7), jobs=3) == [x * x for x in range(7)]


def test_parallel_map_bounds_its_workers(monkeypatch):
    # a stand-in for ProcessPoolExecutor records how it was built and maps
    # in this process, so no test forks as many workers as it asks for
    import concurrent.futures

    built = []

    class SerialPool:
        def __init__(self, max_workers, **kwargs):
            built.append((max_workers, kwargs["initargs"]))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(manybody, "usable_cores", lambda: 4)
    assert parallel_map(square, range(3), jobs=100_000) == [0, 1, 4]
    assert parallel_map(square, range(9), jobs=100_000) == [x * x for x in range(9)]
    assert parallel_map(square, range(9), jobs=2) == [x * x for x in range(9)]
    # (workers, BLAS threads per worker): items, then cores, then jobs bound
    assert built == [(3, (1,)), (4, (1,)), (2, (2,))]
    # one worker, or a platform other than Linux, maps in this process
    monkeypatch.setattr(manybody, "usable_cores", lambda: 1)
    assert parallel_map(square, range(3), jobs=2) == [0, 1, 4]
    monkeypatch.setattr(manybody, "usable_cores", lambda: 4)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert parallel_map(square, range(3), jobs=2) == [0, 1, 4]
    assert len(built) == 3


@pytest.fixture
def openblas():
    lib = krylov._openblas()
    if lib is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    return lib


def recording_solve(dim, fail_dim=None):
    """A Lanczos solve on a diagonal operator; returns OpenBLAS's thread
    count at each matvec.  The first matvec of a ``fail_dim`` solve raises."""
    lib = krylov._openblas()
    diag = np.linspace(0.0, 1.0, dim)
    seen = []

    def matvec(x):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        if dim == fail_dim:
            raise ZeroDivisionError("operator failed")
        return diag * x

    lowest_eigenpairs(matvec, dim, 2, tol=1e-10, scale=np.array([1.0]))
    return seen


def test_parallel_map_runs_each_solve_on_one_blas_thread(openblas):
    threads = openblas.scipy_openblas_get_num_threads64_
    before = threads()
    seen = parallel_map(recording_solve, (300, 301), jobs=2)
    assert all(seen) and set(seen[0] + seen[1]) == {1}
    assert threads() == before
    assert not multiprocessing.active_children()
    with pytest.raises(ZeroDivisionError):
        parallel_map(partial(recording_solve, fail_dim=301), (300, 301), jobs=2)
    assert threads() == before
    assert not multiprocessing.active_children()


def test_parallel_map_caps_blas_threads_and_restores_them(openblas, monkeypatch):
    # above the crossover a lone solve keeps the usable cores, and inside
    # the pool it gets the cores divided by the workers
    monkeypatch.setattr(krylov, "THREADED_LIMIT", 100)
    threads = openblas.scipy_openblas_get_num_threads64_
    before = threads()
    cores = krylov.usable_cores()
    assert set(recording_solve(300)) == {min(cores, before)}
    pooled = parallel_map(recording_solve, (300, 300), jobs=2)
    assert set(pooled[0] + pooled[1]) == {max(1, min(cores // 2, before))}
    assert threads() == before
    with pytest.raises(ZeroDivisionError):
        parallel_map(reciprocal, [1, 0], jobs=2)
    assert threads() == before


def openblas_threads(path, _item):
    """OpenBLAS's thread count, read from the library loaded from ``path``."""
    return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()


def test_solves_run_uncapped_with_another_blas(monkeypatch):
    # on a numpy that links another BLAS every cap is skipped; the solves
    # and the pool still run, to the values they give under the cap
    lib = krylov._openblas()
    dense, lanczos = small_spec(), above_dense_limit_spec()
    flux = FluxoniumSpec(E_J=3.0, E_CJ=1.0, E_LJ=0.15)
    points = [[small_spec(g=g)] for g in (0.8, 1.2)]

    def results():
        return (lowest_spectrum(dense, "even", 3).eigenvalues,
                lowest_spectrum(lanczos, "even", 2).eigenvalues,
                solve_levels(flux).energies,
                [recs[0].delta for recs in parallel_map(ground_splittings, points, jobs=2)])

    capped = results()
    monkeypatch.setattr(krylov, "glob", SimpleNamespace(glob=lambda pattern: []))
    krylov._openblas.cache_clear()
    try:
        assert krylov._openblas() is None
        uncapped = results()
        if lib is not None:
            before = lib.scipy_openblas_get_num_threads64_()
            assert parallel_map(partial(openblas_threads, lib._name),
                                range(2), jobs=2) == [before] * 2
    finally:
        krylov._openblas.cache_clear()
    for a, b in zip(capped, uncapped):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_sector_solve_does_not_depend_on_the_core_count(openblas):
    # 13,680 states: below the crossover every solve runs on one thread, so
    # the count the process had before the solve leaves no trace in it;
    # unpinned, OpenBLAS splits the long dot products across threads
    if krylov.usable_cores() < 2:
        pytest.skip("one usable core")
    spec = ManyBodySpec.from_coupling(5, 3, 0.5, safety=2.5)
    before = openblas.scipy_openblas_get_num_threads64_()
    try:
        runs = []
        for count in (1, 2):
            openblas.scipy_openblas_set_num_threads64_(count)
            runs.append(lowest_spectrum(spec, "even", 1).eigenvalues)
    finally:
        openblas.scipy_openblas_set_num_threads64_(before)
    assert np.array_equal(runs[0], runs[1])
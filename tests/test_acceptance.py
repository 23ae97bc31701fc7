"""Acceptance suite: one test per release criterion, each printing a
one-line verdict (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 5 is implemented exactly as contracted and is expected to fail:
the contract demands the exact two-atom splitting agree with its asymptotic
closed form to 10% at g in {0.8, 1.0, 1.2, 1.5}, but the model's true
deviation there is 21-42% (verified with two independent diagonalization
routes, an independent perturbation-series evaluation, and cutoff-refinement
scans; the deviation shrinks like ~1/(3g) and crosses 10% only past g ~ 1.9
where the splitting sits at the double-precision floor).  The test stays
faithful rather than silently loosening the tolerance.
"""

import math
import time

import numpy as np
import pytest

import fluxchain as fx
from fluxchain.krylov import lowest_eigenpairs
from fluxchain.manybody import (
    HamiltonianEngine,
    ManyBodySpec,
    ground_columns,
    ground_splittings,
    sector_spectra,
)
from fluxchain.cli import fit_beta, run as cli_run
from fluxchain.disorder import DisorderEnsembleSpec, ensemble_splitting, protection_check
from fluxchain.hopfield import (
    HopfieldBlock,
    build_matrix,
    critical_coupling,
    determinant,
)

from oracles import bisect_critical_coupling, dense_hamiltonian, parity_diagonal


def _report(num, name, detail=""):
    print(f"\n[acceptance] criterion {num:02d} {name}: PASS {detail}")


def test_criterion_01_critical_coupling_and_determinant():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        w, wf = rng.uniform(0.2, 5.0, size=2)
        found = bisect_critical_coupling(w, wf, tol=1e-10)
        worst = max(worst, abs(found - critical_coupling(w, wf)))
    assert worst < 1e-8

    worst_det = 0.0
    for _ in range(1000):
        w, wf = rng.uniform(0.2, 5.0, size=2)
        b = HopfieldBlock(w, wf, rng.uniform(0.0, 3.0))
        closed = determinant(b)
        numeric = np.linalg.det(build_matrix(b)).real
        scale = max(abs(closed), (w * wf) ** 2)
        worst_det = max(worst_det, abs(closed - numeric) / scale)
    assert worst_det < 1e-9

    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "critical coupling",
            f"(bisection err {worst:.1e}, det err {worst_det:.1e}, {elapsed:.2f}s)")


def test_criterion_02_fluxonium():
    t0 = time.time()
    lv = fx.solve_levels(fx.FluxoniumSpec(E_J=3.0, E_CJ=1.0, E_LJ=0.15),
                         n_levels=4)
    red = fx.two_level_reduction(lv)
    assert abs(lv.phi01 - math.pi) / math.pi < 0.10
    assert red.two_level_ok

    spec0 = fx.FluxoniumSpec(E_J=1e-30, E_CJ=1.0, E_LJ=0.15,
                             grid_points=6001, grid_half_width=4 * math.pi)
    lv0 = fx.solve_levels(spec0, n_levels=3, convergence_tol=1e-5)
    w_ref = math.sqrt(8 * 1.0 * 0.15)
    p_ref = 2**0.25 * (1.0 / 0.15) ** 0.25
    assert lv0.omega_F == pytest.approx(w_ref, rel=1e-6)
    assert lv0.phi01 == pytest.approx(p_ref, rel=1e-6)

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, "fluxonium",
            f"(phi01/pi {lv.phi01 / math.pi:.4f}, anharmonicity "
            f"{red.anharmonicity:.1f}, {elapsed:.2f}s)")


def test_criterion_03_coupling_estimate():
    val = fx.coupling_estimate(1.0, 1, 1.0, 0.25)
    assert 5.6 <= val <= 5.8
    _report(3, "coupling estimate", f"(value {val:.3f})")


def _random_small_spec(rng):
    # dimensions stay well below the 4096 ceiling so five full dense
    # diagonalizations fit the one-minute budget; the first cutoff is sized
    # to land the dimension in [300, 1400]
    n = int(rng.integers(2, 4))
    nm = int(rng.integers(1, n + 1))
    rest = [int(c) for c in rng.integers(2, 7, size=nm - 1)]
    block = 2**n * int(np.prod([c + 1 for c in rest])) if rest else 2**n
    lo = max(2, -(-300 // block) - 1)
    hi = max(lo + 1, 1400 // block - 1)
    first = int(rng.integers(lo, hi + 1))
    return ManyBodySpec.from_coupling(
        n, nm, float(rng.uniform(0.2, 1.2)),
        omega_atoms=tuple(rng.uniform(0.6, 1.4, size=n)),
        cutoffs=tuple([first] + rest),
    )


def test_criterion_04_dense_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(404)
    for trial in range(5):
        spec = _random_small_spec(rng)
        href = dense_hamiltonian(spec)
        signs = parity_diagonal(spec)
        full_vals = np.linalg.eigvalsh(href)

        union = []
        for want in (1, -1):
            sel = np.flatnonzero(signs == want)
            block = href[np.ix_(sel, sel)]
            union.append(np.linalg.eigvalsh(block))
        union = np.sort(np.concatenate(union))
        assert np.max(np.abs(union - full_vals)) < 1e-9

        for sector in ("even", "odd"):
            op = HamiltonianEngine([(spec, sector)])
            it = lowest_eigenpairs(op.matvec, op.dimension, 3, tol=1e-12,
                                   scale=op.norm_bound())
            sel = np.flatnonzero(signs == (1 if sector == "even" else -1))
            ref = np.linalg.eigvalsh(href[np.ix_(sel, sel)])[:3]
            assert np.max(np.abs(it.eigenvalues - ref)) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, "dense-oracle equivalence", f"(5 specs, {elapsed:.1f}s)")


def test_criterion_05_two_atom_splitting_vs_closed_form():
    # faithful to the stated contract; see the module docstring for why the
    # model itself cannot meet it at these couplings
    t0 = time.time()
    ratios = {}
    for g in (0.8, 1.0, 1.2, 1.5):
        rec = ground_splittings([ManyBodySpec.from_coupling(2, 1, g)], tol=1e-3)[0]
        assert rec.converged
        ratios[g] = rec.delta / fx.analytic_splitting_n2(1.0, 1.0, g)
    elapsed = time.time() - t0
    print(f"\n[acceptance] criterion 05 exact/closed-form splitting ratios: "
          f"{ {g: round(r, 4) for g, r in ratios.items()} } ({elapsed:.0f}s)")
    assert elapsed < 120.0
    for g, ratio in ratios.items():
        assert abs(ratio - 1.0) <= 0.10, (
            f"exact splitting at g={g} deviates {100 * (ratio - 1):.0f}% from "
            "the asymptotic closed form; the 10% contract is unattainable here"
        )
    _report(5, "two-atom splitting vs closed form")


def test_criterion_06_beta_scaling():
    t0 = time.time()
    assert fx.beta_exponent(2, 2) == pytest.approx(8.0, abs=1e-12)

    recs2 = [ground_splittings([ManyBodySpec.from_coupling(2, 2, g, even_floor=8)],
                               tol=1e-2)[0]
             for g in (1.0, 1.2, 1.4, 1.6, 1.8)]
    fit2 = fit_beta(recs2)
    assert 1.6 * 4 < fit2.beta < 2.1 * 4

    recs3 = [ground_splittings([ManyBodySpec.from_coupling(3, 3, g, even_floor=12)],
                               tol=1e-2)[0]
             for g in (0.9, 1.0, 1.1, 1.2, 1.3)]
    fit3 = fit_beta(recs3)
    assert 1.6 * 9 < fit3.beta < 2.1 * 9

    elapsed = time.time() - t0
    assert elapsed < 15 * 60
    _report(6, "beta scaling",
            f"(beta2 {fit2.beta:.3f} in (6.4, 8.4), beta3 {fit3.beta:.3f} "
            f"in (14.4, 18.9), {elapsed:.0f}s)")


def _doublet_fidelity(spec):
    pair = sector_spectra(ground_columns(spec), 1, tol=1e-10, with_vectors=True)
    return fx.doublet_overlap([r.vectors[0] for r in pair]).fidelity


def test_criterion_07_vacuum_overlap():
    t0 = time.time()
    grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    fids = [
        _doublet_fidelity(ManyBodySpec.from_coupling(5, 3, g, safety=3.5))
        for g in grid
    ]
    top = fids[len(fids) // 2:]
    assert all(b >= a - 1e-9 for a, b in zip(top, top[1:]))

    # cutoff convergence of the reported number at the largest coupling
    fid_refined = _doublet_fidelity(
        ManyBodySpec.from_coupling(5, 3, grid[-1], safety=4.25)
    )
    assert abs(fid_refined - fids[-1]) < 1e-3
    assert fids[-1] >= 0.98

    elapsed = time.time() - t0
    assert elapsed < 30 * 60
    _report(7, "vacuum overlap",
            f"(fidelity at g=1.5: {fids[-1]:.4f}, refined {fid_refined:.4f}, "
            f"grid {[round(f, 4) for f in fids]}, {elapsed:.0f}s)")


def test_criterion_08_ferromagnetic_minimizer():
    t0 = time.time()
    for n in range(2, 9):
        configs, _ = fx.minimize_pseudospin_config(n, n, g=1.0)
        assert sorted(configs) == sorted([tuple([1] * n), tuple([-1] * n)])
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(8, "ferromagnetic minimizer", f"(N = 2..8, {elapsed:.2f}s)")


def test_criterion_09_protected_degeneracy():
    t0 = time.time()
    rng = np.random.default_rng(909)
    for n in (2, 3, 4):
        deltas = 0.5 * rng.standard_normal(n)
        for m in range(1, n):
            el = protection_check(n, 2 if n > 2 else 2, 1.5, m, deltas)
            # every degeneracy-lifting piece vanishes below order N
            assert abs(el[("+", "-")]) < 1e-12
            assert abs(el[("-", "+")]) < 1e-12
            assert abs(el[("+", "+")] - el[("-", "-")]) < 1e-12
        el = protection_check(n, 2, 1.5, n, deltas)
        assert abs(el[("+", "-")]) > 0.0

    # resolvable magnitude check away from the rounding floor
    deltas = 0.5 * rng.standard_normal(2)
    el = protection_check(2, 2, 1.0, 2, deltas)
    alpha2 = 2.0 / math.sin(math.pi / 4) ** 2
    expected = 2 * abs(deltas[0] * deltas[1]) / 4 * math.exp(-2 * alpha2)
    assert abs(el[("+", "-")]) == pytest.approx(expected, rel=0.05)

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, "protected degeneracy", f"({elapsed:.1f}s)")


def test_criterion_10_disorder_statistics():
    t0 = time.time()
    base = ManyBodySpec.from_coupling(2, 1, 1.0)
    deltas = ensemble_splitting(
        DisorderEnsembleSpec(base=base, amplitude=0.5, count=10000, seed=1010),
        engine="analytic",
    )
    ratio = np.std(deltas) / np.mean(deltas)
    expected = math.sqrt(2 + 0.5**2) * 0.5
    assert ratio == pytest.approx(expected, rel=0.05)

    gs = (1.0, 1.2, 1.4, 1.6)
    clean, noisy = [], []
    for g in gs:
        spec = ManyBodySpec.from_coupling(2, 1, g)
        clean.append(ground_splittings([spec], refine=False)[0].delta)
        noisy.append(np.mean(ensemble_splitting(
            DisorderEnsembleSpec(base=spec, amplitude=0.5, count=100, seed=77),
            engine="exact",
        )))
    x = np.array([g * g for g in gs])
    slope_clean = np.polyfit(x, np.log(clean), 1)[0]
    slope_noisy = np.polyfit(x, np.log(noisy), 1)[0]
    assert slope_noisy == pytest.approx(slope_clean, rel=0.05)

    elapsed = time.time() - t0
    assert elapsed < 10 * 60
    _report(10, "disorder statistics",
            f"(sigma/mean {ratio:.4f} vs {expected}, slopes {slope_clean:.3f} "
            f"vs {slope_noisy:.3f}, {elapsed:.0f}s)")


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.time()
    jobs = [
        ("polariton", {"omega_k": 1.0, "omega_F": 1.0, "rabi_max": 0.9,
                       "rabi_count": 10}),
        ("splitting-sweep", {"N": 2, "N_m": 1, "g_grid": [0.9, 1.1]}),
        ("disorder", {"N": 2, "N_m": 1, "g": 1.0, "amplitude": 0.4,
                      "count": 12, "engine": "analytic", "seed": 42}),
    ]
    for command, args in jobs:
        out = tmp_path / command.replace("-", "_")
        outs = []
        for _ in range(2):  # identical reruns into the same path
            cli_run(command, None, dict(args, out_dir=str(out)))
            outs.append({
                p.name: p.read_bytes() for p in sorted((out / command).iterdir())
            })
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{command}/{name} differs"
    elapsed = time.time() - t0
    _report(11, "CLI determinism", f"({elapsed:.1f}s)")

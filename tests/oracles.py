"""Test-local reference constructions, independent of the package internals.

The dense Hamiltonian here is assembled from explicit Kronecker products in
the documented basis order (modes slowest, highest mode first; atom 1 in the
lowest spin bit, bit value = occupation of the upper level).  It shares no
code with the production matvec.
"""

import math

import numpy as np

from fluxchain.hopfield import HopfieldBlock, HopfieldError, build_matrix

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# component index b in {0,1} carries sz eigenvalue 2b - 1
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SY = 1j * SX @ SZ
#: the metric of the Bogoliubov generator ``hopfield.build_matrix``
ETA = np.diag([1.0, 1.0, -1.0, -1.0])


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def spin_op(n_atoms, j, op):
    """Operator on atom j (1-based), atom 1 in the lowest bit."""
    return kron_chain([np.eye(2 ** (n_atoms - j)), op, np.eye(2 ** (j - 1))])


def mode_op(mode_dims, m, op):
    """Operator on mode m (0-based), mode 0 fastest among the modes."""
    ops = []
    for mm in reversed(range(len(mode_dims))):
        ops.append(op if mm == m else np.eye(mode_dims[mm]))
    return kron_chain(ops)


def lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def dense_hamiltonian(spec) -> np.ndarray:
    """Reference dense H for a ManyBodySpec, built purely from krons."""
    mode_dims = list(spec.mode_dims)
    S = 2**spec.n_atoms
    D = S * int(np.prod(mode_dims))
    I_spin = np.eye(S, dtype=complex)
    I_modes = np.eye(D // S, dtype=complex)

    H = np.zeros((D, D), dtype=complex)
    for m, dim in enumerate(mode_dims):
        a = mode_op(mode_dims, m, lowering(dim))
        H += spec.omega_modes[m] * np.kron(a.conj().T @ a, I_spin)
    for j in range(1, spec.n_atoms + 1):
        H += 0.5 * spec.omega_atoms[j - 1] * np.kron(I_modes, spin_op(spec.n_atoms, j, SZ))
    for m, dim in enumerate(mode_dims):
        a = mode_op(mode_dims, m, lowering(dim))
        ada = a - a.conj().T
        for j in range(1, spec.n_atoms + 1):
            c = spec.rabi[m] * np.sqrt(2.0 / spec.n_atoms) * spec.weights[m][j - 1]
            if c == 0.0:
                continue
            H += 1j * c * np.kron(ada, spin_op(spec.n_atoms, j, SX))
    return H


def parity_diagonal(spec) -> np.ndarray:
    """Reference parity (prod_j sz_j) (-1)^(total photon number), which is
    diagonal in the basis, as the kron of its per-factor diagonals."""
    out = np.ones(1)
    for dim in reversed(spec.mode_dims):
        out = np.kron(out, (-1.0) ** np.arange(dim))
    for _ in range(spec.n_atoms):
        out = np.kron(out, np.diag(SZ).real)
    return out


def embedded(wf) -> np.ndarray:
    """A sector wavefunction's amplitudes over the full space, zero outside
    its sector."""
    out = np.zeros(wf.indexer.spec.dimension, dtype=complex)
    out[wf.indexer.indices] = wf.data
    return out


def mirror_operator(spec) -> np.ndarray:
    """Reference mirror R of a chain: atom j <-> atom N+1-j as a product of
    two-spin swaps (I + XX + YY + ZZ) / 2, times (-1)^n on each mode whose
    weights change sign under the reflection, as a dense kron product."""
    n = spec.n_atoms
    spins = np.eye(2**n, dtype=complex)
    for j in range(1, n // 2 + 1):
        k = n + 1 - j
        swap = np.eye(2**n, dtype=complex)
        for p in (SX, SY, SZ):
            swap = swap + spin_op(n, j, p) @ spin_op(n, k, p)
        spins = spins @ (swap / 2)
    modes = np.eye(1)
    for m in reversed(range(spec.n_modes)):
        w = np.array(spec.weights[m])
        if np.allclose(w[::-1], w):
            factor = np.ones(spec.mode_dims[m])
        else:
            assert np.allclose(w[::-1], -w)
            factor = (-1.0) ** np.arange(spec.mode_dims[m])
        modes = np.kron(modes, np.diag(factor))
    return np.kron(modes, spins)


def eigenvalue_stability(b: HopfieldBlock) -> bool:
    """Stability of a Hopfield block judged only from the dense 4x4
    eigenvalue solver, independent of the closed-form route.

    The imaginary-part threshold sits well above eigensolver noise for
    near-defective spectra and well below the imaginary parts that open up
    past the transition: 2e-7 of the block's largest frequency scale.
    """
    lam = np.linalg.eigvals(build_matrix(b))
    scale = max(b.omega_k, b.omega_F, b.rabi, 1.0)
    return bool(np.max(np.abs(lam.imag)) < 2e-7 * scale)


def bisect_critical_coupling(omega_k: float, omega_F: float,
                             tol: float = 1e-10) -> float:
    """Locate the stability edge by bisection on the eigenvalue detector."""
    lo = 0.0
    hi = math.sqrt(omega_k * omega_F)  # safely unstable
    if eigenvalue_stability(HopfieldBlock(omega_k, omega_F, hi)):
        raise HopfieldError("upper bisection bracket unexpectedly stable")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if eigenvalue_stability(HopfieldBlock(omega_k, omega_F, mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def harmonic_reference(e_cj: float, e_lj: float) -> tuple[float, float]:
    """(omega, phi01) of the fluxonium's E_J = 0 oscillator limit."""
    omega = np.sqrt(8.0 * e_cj * e_lj)
    phi01 = 2.0**0.25 * (e_cj / e_lj) ** 0.25
    return float(omega), float(phi01)

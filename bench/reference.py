"""Independent sparse reference for the spin-boson chain.

H and the parity operator are assembled as ``scipy.sparse`` Kronecker
products in the documented basis order: modes slowest with the highest mode
first, then the spins, atom 1 in the lowest bit, bit value 1 = upper level.
Couplings are evaluated from the model's closed forms (W_k from the
dispersion ratio, f_k(j) from the standing-wave pattern).  Nothing here
imports ``fluxchain``; the benchmark's checks compare the package's
eigenvalues with the ones computed here.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

SX = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
SZ = sp.csr_matrix(np.diag([-1.0, 1.0]))

#: sector dimension at or below which the reference solves densely
DENSE_REFERENCE_LIMIT = 3000


def couplings(n_atoms: int, n_modes: int, g: float,
              omega_mode: float = 1.0) -> np.ndarray:
    """c[k-1, j-1] = W_k sqrt(2/N) f_k(j) of the resonant chain at coupling g."""
    s1 = math.sin(math.pi / (2.0 * n_atoms))
    out = np.zeros((n_modes, n_atoms))
    for k in range(1, n_modes + 1):
        w_k = (g * math.sqrt(n_atoms) * omega_mode
               * math.sin(k * math.pi / (2.0 * n_atoms)) / (s1 * math.sqrt(k)))
        for j in range(1, n_atoms + 1):
            x = k * math.pi * (j - (n_atoms + 1) / 2.0) / n_atoms
            if k == n_atoms:
                f = (-1.0) ** j / math.sqrt(2.0)
            elif k % 2 == 1:
                f = math.cos(x)
            else:
                f = math.sin(x)
            out[k - 1, j - 1] = w_k * math.sqrt(2.0 / n_atoms) * f
    return out


def _kron_all(ops) -> sp.csr_matrix:
    out = sp.identity(1, format="csr")
    for op in ops:
        out = sp.kron(out, op, format="csr")
    return out


def hamiltonian(n_atoms: int, omega_atoms, cutoffs, coupling: np.ndarray,
                omega_mode: float = 1.0) -> sp.csr_matrix:
    """Sparse H = sum_k w_k n_k + sum_j (wF_j/2) sz_j + sum_kj i c_kj (a_k - a_k^dag) sx_j."""
    dims = [c + 1 for c in cutoffs]
    n_modes = len(dims)
    spin_dim = 2**n_atoms
    boson_dim = int(np.prod(dims))

    def mode_op(m, op):
        return _kron_all([op if mm == m else sp.identity(dims[mm])
                          for mm in reversed(range(n_modes))])

    def spin_op(j, op):
        return _kron_all([sp.identity(2 ** (n_atoms - j)), op,
                          sp.identity(2 ** (j - 1))])

    h = sp.csr_matrix((boson_dim * spin_dim,) * 2, dtype=complex)
    for m, dim in enumerate(dims):
        number = sp.diags(np.arange(dim, dtype=float))
        lower = sp.diags(np.sqrt(np.arange(1.0, dim)), 1)
        h = h + (m + 1) * omega_mode * sp.kron(mode_op(m, number),
                                               sp.identity(spin_dim))
        quad = mode_op(m, lower - lower.T)
        for j in range(1, n_atoms + 1):
            c = coupling[m, j - 1]
            if c != 0.0:
                h = h + 1j * c * sp.kron(quad, spin_op(j, SX))
    for j in range(1, n_atoms + 1):
        h = h + 0.5 * omega_atoms[j - 1] * sp.kron(sp.identity(boson_dim),
                                                   spin_op(j, SZ))
    return h.tocsr()


def parity(n_atoms: int, cutoffs) -> np.ndarray:
    """Diagonal of (prod_j sz_j) (-1)^(total photons), as +-1 per basis state."""
    spin = np.ones(1)
    for _ in range(n_atoms):
        spin = np.kron(np.array([-1.0, 1.0]), spin)
    boson = np.ones(1)
    for c in reversed(cutoffs):
        boson = np.kron(boson, (-1.0) ** np.arange(c + 1))
    return np.kron(boson, spin)


def sector_levels(n_atoms: int, n_modes: int, g: float, omega_atom: float,
                  cutoffs, sector: str, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of H in a parity sector or the full space."""
    h = hamiltonian(n_atoms, [omega_atom] * n_atoms, list(cutoffs),
                    couplings(n_atoms, n_modes, g))
    if sector != "full":
        keep = np.flatnonzero(parity(n_atoms, cutoffs) == (1.0 if sector == "even" else -1.0))
        h = h[keep][:, keep]
    if h.shape[0] <= DENSE_REFERENCE_LIMIT:
        return np.linalg.eigvalsh(h.toarray())[:count]
    vals = eigsh(h, k=count, which="SA", v0=np.ones(h.shape[0], dtype=complex),
                 tol=0, return_eigenvectors=False)
    return np.sort(vals)

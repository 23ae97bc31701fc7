"""Lanczos iteration with full reorthogonalization and thick restarts.

Built for resolving near-degenerate sector ground states down to the
floating-point floor: the projected matrix is kept as a small dense Hermitian
block (exact under full reorthogonalization), restarts keep a thick band of
Ritz vectors, and every converged pair is certified with an explicit residual
before it is returned.  Deterministic for a fixed start vector; the seeded
generator is touched only on breakdown.

The basis is stored column-stacked so projections and reorthogonalization run
as BLAS matrix-vector products; this is what makes half-million-dimensional
sector solves practical.  It takes the dtype of the start vector, so a real
symmetric operator started from a real vector runs in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EigenConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best residuals seen."""

    def __init__(self, message, eigenvalues, residuals):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


@dataclass
class LanczosResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residuals: np.ndarray
    matvec_count: int
    restarts: int = 0


def lowest_eigenpairs(matvec, dim: int, k: int, *, v0: np.ndarray | None = None,
                      tol: float = 1e-10, scale: float | None = None,
                      max_matvecs: int = 60000, basis_size: int | None = None,
                      with_vectors: bool = True,
                      breakdown_seed: int = 7) -> LanczosResult:
    """k lowest eigenpairs of a Hermitian operator given only its matvec.

    The iteration runs in the dtype of ``v0`` (complex ones by default).
    ``tol`` is relative to ``scale`` (an operator-norm estimate; falls back to
    the largest projected Ritz value).  Residual estimates from the projected
    problem drive the iteration; explicit residuals ||A x - lambda x|| gate
    acceptance.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > dim:
        raise ValueError("cannot request more pairs than the dimension")
    if basis_size is None:
        basis_size = max(2 * k + 28, 36)
    basis_size = min(max(basis_size, k + 4), dim)

    rng = np.random.default_rng(breakdown_seed)
    if v0 is None:
        v = np.ones(dim, dtype=complex)
    else:
        v = v0.astype(np.result_type(v0, float), copy=True)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v = rng.standard_normal(dim).astype(v.dtype)
        nrm = np.linalg.norm(v)

    Q = np.empty((dim, basis_size + 1), dtype=v.dtype, order="F")
    Q[:, 0] = v / nrm
    proj = np.zeros((basis_size, basis_size), dtype=v.dtype)
    m = 0
    n_mv = 0
    restarts = 0
    best_vals = None
    best_res = None

    def reorthogonalize(w, upto):
        # two classical Gram-Schmidt passes against the stored basis
        for _ in range(2):
            w -= Q[:, :upto] @ (Q[:, :upto].conj().T @ w)
        return w, float(np.linalg.norm(w))

    while n_mv < max_matvecs:
        w = matvec(Q[:, m])
        n_mv += 1
        coeffs = Q[:, : m + 1].conj().T @ w
        proj[: m + 1, m] = coeffs
        proj[m, : m + 1] = np.conj(coeffs)
        w -= Q[:, : m + 1] @ coeffs
        w, beta = reorthogonalize(w, m + 1)
        m += 1

        block = proj[:m, :m]
        vals, svecs = np.linalg.eigh((block + block.conj().T) / 2.0)
        n_want = min(k, m)
        op_scale = scale if scale is not None else max(1.0, float(np.max(np.abs(vals))))
        est = np.abs(beta * svecs[m - 1, :n_want])
        best_vals = vals[:n_want]
        best_res = est

        if m >= k and np.all(est < tol * op_scale):
            ritz = Q[:, :m] @ svecs[:, :k]
            explicit = np.empty(k)
            for j in range(k):
                x = ritz[:, j]
                x /= np.linalg.norm(x)
                r = matvec(x) - vals[j] * x
                n_mv += 1
                explicit[j] = np.linalg.norm(r)
                ritz[:, j] = x
            if np.all(explicit < 10.0 * tol * op_scale):
                return LanczosResult(
                    eigenvalues=vals[:k].copy(),
                    eigenvectors=ritz if with_vectors else None,
                    residuals=explicit,
                    matvec_count=n_mv,
                    restarts=restarts,
                )
            # estimates were optimistic; keep iterating

        if m >= dim:
            # Krylov space exhausted: the projected problem is the full one
            ritz = Q[:, :m] @ svecs[:, :k]
            explicit = np.empty(k)
            for j in range(k):
                x = ritz[:, j]
                x /= np.linalg.norm(x)
                explicit[j] = np.linalg.norm(matvec(x) - vals[j] * x)
                n_mv += 1
                ritz[:, j] = x
            return LanczosResult(
                eigenvalues=vals[:k].copy(),
                eigenvectors=ritz if with_vectors else None,
                residuals=explicit,
                matvec_count=n_mv,
                restarts=restarts,
            )

        if beta < 1e-13 * op_scale:
            # invariant subspace hit: continue in a seeded random direction
            w = rng.standard_normal(dim)
            if np.iscomplexobj(Q):
                w = w + 1j * rng.standard_normal(dim)
            w, beta = reorthogonalize(w, m)
        Q[:, m] = w / beta

        if m == basis_size:
            # thick restart: rotate to the lowest Ritz vectors, keep the
            # residual direction as the next Lanczos vector.  The projected
            # block restricted to kept Ritz vectors is exactly diagonal.
            keep = min(max(k + 6, 2 * k), m - 2)
            kept = Q[:, :m] @ svecs[:, :keep]
            Q[:, keep] = Q[:, m]
            Q[:, :keep] = kept
            proj = np.zeros((basis_size, basis_size), dtype=Q.dtype)
            proj[:keep, :keep] = np.diag(vals[:keep])
            m = keep
            restarts += 1

    raise EigenConvergenceError(
        f"no convergence after {n_mv} matvecs (best residual estimates "
        f"{np.array2string(np.asarray(best_res), precision=3)})",
        best_vals, best_res,
    )

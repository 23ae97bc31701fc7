"""Lanczos iteration with full reorthogonalization and thick restarts.

Built for resolving near-degenerate sector ground states of a real symmetric
operator down to the floating-point floor: the projected matrix is a small
dense block (exact under full reorthogonalization), restarts keep a thick
band of Ritz vectors, and every pair is certified with an explicit residual
before it is returned.  The basis is stored column-stacked, so projections
and reorthogonalization run as BLAS matrix-vector products.

Arithmetic is real and the start vector is seeded gaussian noise, so a solve
is deterministic and its start has weight on every eigenvector; a start
inside one symmetry class of the operator would never reach the levels of
another.  A caller that already holds a good approximation (the ground
vector of the same operator at smaller cutoffs, say) passes it as ``start``;
the seeded noise is then added at relative weight 1e-3, which keeps the
solve deterministic and every eigenvector reachable.  A single start still
spans one direction per eigenspace, so an exactly degenerate level may come
back fewer times than its multiplicity.
``manybody.lowest_spectrum`` solves sectors of at most ``DENSE_LIMIT``
states densely, which returns every copy, and only larger ones here.

Each returned eigenvalue is the Rayleigh quotient x.Ax of its certified
Ritz vector x, not the Ritz value of the projected block.  The product A x
is already formed for the explicit residual, so this costs one dot product.
The Ritz value carries the rounding of every projection that built the
block, a few times eps ||A||; the Rayleigh quotient is formed once from the
final vector and is off the eigenvalue by the squared residual over the gap.
Two sector energies near -14 can then be subtracted down to splittings of
1e-11 without the start seed showing in the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: seed of the start vector and of the directions taken after a breakdown
SEED = 7


class EigenConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best residuals seen."""

    def __init__(self, message, eigenvalues, residuals):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


@dataclass
class LanczosResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    matvec_count: int
    restarts: int = 0


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Classical Gram-Schmidt, twice, of ``w`` (in place) against the columns
    of ``basis``; returns the first pass's coefficients and the remaining norm."""
    coeffs = basis.T @ w
    w -= basis @ coeffs
    w -= basis @ (basis.T @ w)
    return coeffs, float(np.linalg.norm(w))


def lowest_eigenpairs(matvec, dim: int, k: int, *, tol: float, scale: float,
                      max_matvecs: int = 60000, start=None) -> LanczosResult:
    """k lowest eigenpairs of a real symmetric operator given only its matvec.

    ``tol`` is relative to ``scale``, an operator-norm estimate.  Residual
    estimates from the projected problem drive the iteration; explicit
    residuals ||A x - lambda x|| gate acceptance at ``10 * tol * scale``,
    except once the Krylov space is exhausted and the projection is exact.
    The Ritz vectors those residuals certify are returned as the columns of
    ``eigenvectors``, and their Rayleigh quotients as ``eigenvalues``.
    ``start``, a nonzero ``(dim,)`` vector, seeds the iteration in place of
    pure noise.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    basis_size = min(max(2 * k + 28, 36), dim)

    rng = np.random.default_rng(SEED)
    v = rng.standard_normal(dim)
    if start is not None:
        norm = np.linalg.norm(start) if np.shape(start) == (dim,) else 0.0
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError(f"start must be a finite nonzero ({dim},) vector")
        v = start / norm + 1e-3 * (v / np.linalg.norm(v))
    Q = np.empty((dim, basis_size + 1), order="F")
    Q[:, 0] = v / np.linalg.norm(v)
    proj = np.zeros((basis_size, basis_size))
    m = n_mv = restarts = 0
    best_vals = best_res = None

    while n_mv < max_matvecs:
        w = matvec(Q[:, m])
        n_mv += 1
        coeffs, beta = _orthogonalize(Q[:, : m + 1], w)
        proj[m, : m + 1] = proj[: m + 1, m] = coeffs
        m += 1

        vals, svecs = np.linalg.eigh(proj[:m, :m])
        best_vals = vals[: min(k, m)]
        best_res = np.abs(beta * svecs[m - 1, : min(k, m)])

        if m >= dim or (m >= k and np.all(best_res < tol * scale)):
            ritz = Q[:, :m] @ svecs[:, :k]
            ritz /= np.linalg.norm(ritz, axis=0)
            rq, explicit = np.empty(k), np.empty(k)
            for j in range(k):
                hx = matvec(ritz[:, j])
                n_mv += 1
                rq[j] = ritz[:, j] @ hx
                explicit[j] = np.linalg.norm(hx - rq[j] * ritz[:, j])
            if m >= dim or np.all(explicit < 10.0 * tol * scale):
                return LanczosResult(rq, ritz, explicit, n_mv, restarts)
            # estimates were optimistic; keep iterating

        if beta < 1e-13 * scale:
            # invariant subspace hit: continue in a seeded random direction
            w = rng.standard_normal(dim)
            _, beta = _orthogonalize(Q[:, :m], w)
        Q[:, m] = w / beta

        if m == basis_size:
            # thick restart: rotate to the lowest Ritz vectors, keep the
            # residual direction as the next Lanczos vector.  The projected
            # block restricted to kept Ritz vectors is exactly diagonal.
            keep = min(max(k + 6, 2 * k), m - 2)
            kept = Q[:, :m] @ svecs[:, :keep]
            Q[:, keep] = Q[:, m]
            Q[:, :keep] = kept
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(vals[:keep])
            m = keep
            restarts += 1

    raise EigenConvergenceError(
        f"no convergence after {n_mv} matvecs (best residual estimates "
        f"{np.array2string(np.asarray(best_res), precision=3)})",
        best_vals, best_res,
    )

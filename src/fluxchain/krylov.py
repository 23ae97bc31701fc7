"""Lanczos iteration with full reorthogonalization and thick restarts.

Built for resolving near-degenerate sector ground states of a real symmetric
operator down to the floating-point floor: the projected matrix is a small
dense block that holds Q^T A Q to rounding, restarts keep a thick band of
Ritz vectors (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)), and
every pair is certified with an explicit residual before it is returned.
The basis is stored column-stacked, so projections run as BLAS
matrix-vector products.

Each step costs one matvec and about one sweep over the basis:

* the recurrence first subtracts the couplings it already knows, beta times
  the previous vector on an ordinary step, or the arrow of couplings to the
  kept Ritz vectors on the first step after a restart, and then alpha times
  the current vector;
* one classical Gram-Schmidt pass against the whole basis removes what
  rounding left behind, and a second pass runs only when the first cancelled
  most of the vector, its norm falling below 1/sqrt(2) of its value before
  the pass (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976));
  the recurrence and both corrections enter the projected block;
* on every second step, on a restart and once the Krylov space is
  exhausted, the projected block is diagonalized (``numpy.linalg.eigh``)
  and its k lowest pairs, or as many as the restart keeps, are used; a
  converged pair is thus seen at most one matvec late.

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

Every solve owns its BLAS thread budget (``solve_threads``).  At or below
``THREADED_LIMIT`` states it runs on one OpenBLAS thread: a step there is
Python-bound, with GEMVs of some thousand rows and a projected block of at
most 36 x 36.  A second thread there saves no time: it doubled the CPU
time, and a solve ran two to ten times slower while another process held
the second core.  One thread also sums every long dot product in one order,
so the result does not depend on the core count.  Above the limit a solve runs on the usable
cores.  The caps of the solves and of ``manybody.parallel_map`` share one
process-wide count (``blas_threads``), so a solve in a worker gets the
smaller of its cap and the pool's.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

#: seed of the start vector and of the directions taken after a breakdown
SEED = 7
#: a Gram-Schmidt pass that leaves less than this share of the norm is repeated
DGKS = 1 / np.sqrt(2)

#: dimension at or below which a solve runs on one BLAS thread, above it on
#: the usable cores.  One N=4 sector ground solve, fresh processes, median
#: wall time at one thread against two (2 cores; CHANGES.md): 0.76 against
#: 0.75 s at 103,680 states, 1.25 s both at 151,200, 1.66 against 1.40 s at
#: 176,000 and 3.02 against 2.67 s at 290,400; two threads cost 1.8-2x CPU
THREADED_LIMIT = 160_000


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas():
    """numpy's bundled OpenBLAS (Linux and Windows wheels keep it in
    numpy.libs, macOS wheels in numpy/.dylibs), or None for another BLAS."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for where in (os.path.join(site, "numpy.libs"), os.path.join(site, "numpy", ".dylibs")):
        for path in sorted(glob.glob(os.path.join(where, "libscipy_openblas64_*"))):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                lib.scipy_openblas_set_num_threads64_.restype = None
                lib.scipy_openblas_get_num_threads64_.argtypes = []
                lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
                return lib
    return None


class _ThreadCaps:
    """The caps on OpenBLAS's thread count that are open now, in any thread.

    The count is one setting of the whole process, so a block that saved it
    and restored it alone could undo the cap of a block open in another
    thread.  Here the count is the smallest open cap, never above the count
    found when the first cap opened, and that count comes back when the last
    cap closes.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.open: list[int] = []
        self.uncapped = 1

    def apply(self, lib):
        lib.scipy_openblas_set_num_threads64_(min(self.open + [self.uncapped]))


_caps = _ThreadCaps()


@contextmanager
def blas_threads(n: int):
    """Cap numpy's OpenBLAS at ``n`` threads inside the block.

    Caps nest and overlap across threads: the count is the smallest cap
    open in the process, and the count before the first cap comes back on
    exit from the last.  With another BLAS the block runs uncapped.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    n = max(1, n)
    with _caps.lock:
        if not _caps.open:
            _caps.uncapped = lib.scipy_openblas_get_num_threads64_()
        _caps.open.append(n)
        _caps.apply(lib)
    try:
        yield
    finally:
        with _caps.lock:
            _caps.open.remove(n)
            _caps.apply(lib)


def solve_threads(dim: int):
    """The BLAS cap of one eigensolve on ``dim`` states: one thread at or
    below ``THREADED_LIMIT``, the usable cores above it."""
    return blas_threads(1 if dim <= THREADED_LIMIT else usable_cores())


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


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> float:
    """Classical Gram-Schmidt, twice, of ``w`` (in place) against the columns
    of ``basis``; returns the remaining norm."""
    w -= basis @ (basis.T @ w)
    w -= basis @ (basis.T @ w)
    return float(np.linalg.norm(w))


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

    The solve runs under ``solve_threads(dim)``.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    with solve_threads(dim):
        return _lanczos(matvec, dim, k, tol, scale, max_matvecs, start)


def _lanczos(matvec, dim, k, tol, scale, max_matvecs, start) -> LanczosResult:
    basis_size = min(max(2 * k + 28, 36), dim)
    keep = min(max(k + 6, 2 * k), basis_size - 2)

    rng = np.random.default_rng(SEED)
    v = rng.standard_normal(dim)
    if start is not None:
        norm = np.linalg.norm(start) if np.shape(start) == (dim,) else 0.0
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError(f"start must be a finite nonzero ({dim},) vector")
        v = start / norm + 1e-3 * (v / np.linalg.norm(v))
    Q = np.empty((dim, basis_size + 1), order="F")
    Q[:, 0] = v / np.linalg.norm(v)
    # projected block Q^T A Q; row m holds the couplings of Q[:, m] to
    # Q[:, lo:m] that the recurrence already knows before its matvec
    proj = np.zeros((basis_size, basis_size))
    m = lo = n_mv = restarts = 0
    best_vals = best_res = None

    while n_mv < max_matvecs:
        q = Q[:, m]
        w = matvec(q)
        n_mv += 1
        if m - lo == 1:
            w -= proj[m, lo] * Q[:, lo]
        else:
            w -= Q[:, lo:m] @ proj[m, lo:m]
        proj[m, m] = alpha = q @ w
        w -= alpha * q
        # one Gram-Schmidt pass removes the rounding the recurrence left;
        # a second runs only if it cancelled most of w (DGKS)
        basis = Q[:, : m + 1]
        before = np.linalg.norm(w)
        corr = basis.T @ w
        w -= basis @ corr
        beta = float(np.linalg.norm(w))
        if beta < DGKS * before:
            extra = basis.T @ w
            w -= basis @ extra
            corr += extra
            beta = float(np.linalg.norm(w))
        proj[m, : m + 1] += corr
        proj[: m + 1, m] = proj[m, : m + 1]
        m += 1

        restart = m == basis_size
        # the projected block is solved on every second step only, and on
        # a restart or once the Krylov space is exhausted
        solved = restart or m >= dim or m % 2 == 0
        if solved:
            vals, svecs = np.linalg.eigh(proj[:m, :m])
            best_vals = vals[: min(k, m)]
            best_res = np.abs(beta * svecs[m - 1, : min(k, m)])

        if solved and (m >= dim or (m >= k and np.all(best_res < tol * scale))):
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
            # invariant subspace hit: continue in a seeded random direction,
            # which no recurrence couples to the basis
            w = rng.standard_normal(dim)
            Q[:, m] = w / _orthogonalize(Q[:, :m], w)
            beta = 0.0
        else:
            np.divide(w, beta, out=Q[:, m])

        if restart:
            # thick restart: rotate to the lowest Ritz vectors, keep the
            # residual direction as the next Lanczos vector.  The block on
            # the kept Ritz vectors is diagonal, and the residual direction
            # couples to them through the arrow beta * (last row of svecs).
            kept = Q[:, :m] @ svecs[:, :keep]
            Q[:, keep] = Q[:, m]
            Q[:, :keep] = kept
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(vals[:keep])
            proj[keep, :keep] = beta * svecs[m - 1, :keep]
            m, lo = keep, 0
            restarts += 1
        else:
            proj[m, m - 1] = beta
            lo = m - 1

    raise EigenConvergenceError(
        f"no convergence after {n_mv} matvecs (best residual estimates "
        f"{np.array2string(np.asarray(best_res), precision=3)})",
        best_vals, best_res,
    )

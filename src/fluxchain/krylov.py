"""Lanczos iteration with full reorthogonalization and thick restarts.

Built for resolving near-degenerate sector ground states of a real symmetric
operator down to the floating-point floor: the projected matrix is a small
dense block that holds Q^T A Q to rounding, restarts keep a thick band of
Ritz vectors (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)), and
every pair is certified with an explicit residual before it is returned.

One loop steps a stack of b independent operators of one dimension in
lockstep; a single solve is a stack of one.  Each step makes one matvec
call on a ``(b, dim)`` array, the columns share the step count m, the
restarts and one stacked ``numpy.linalg.eigh`` of their projected blocks,
and every product runs as one BLAS call per column (``matmul`` on the
row-stacked bases), so a column's bits never depend on its neighbours.  A
column keeps the pairs certified at its first convergence and its matvec
count from then, and is stepped on, its results untouched, until the last
column converges.  A stack pays where the loop is Python-bound: eight
462-state sector solves took 60-85 ms one by one and 26-35 ms as one stack
(medians of five fresh processes, 2 cores).

Each step costs one matvec, one sweep reading the basis and, on a quarter
to two fifths of the steps, a second sweep updating from it:

* the recurrence first subtracts the couplings it already knows, beta times
  the previous vector on an ordinary step, or the arrow of couplings to the
  kept Ritz vectors on the first step after a restart, and then alpha times
  the current vector;
* a classical Gram-Schmidt reading pass ``corr = Q^T w`` measures what
  rounding left behind, and the update ``w -= Q corr`` runs only in the
  columns where some entry of ``corr`` exceeds ``ORTHO`` = 1e-14 of the
  norm of w; elsewhere the recurrence already left w orthogonal to the
  basis at the rounding level, and the step keeps w and its norm as they
  are.  Where the update runs, a second pass follows only when the first
  cancelled most of the vector, its norm falling below 1/sqrt(2) of its
  value before the pass (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
  772 (1976)), and the corrections enter the projected block beside the
  recurrence.  Full orthogonality to rounding is kept, not the
  semi-orthogonality at sqrt(eps) that suffices for the Ritz values alone
  (Simon, Math. Comp. 42, 115 (1984)): with the threshold at 1e-8 the
  benchmark's sector solves stalled at ``MAX_MATVECS``.  In the
  benchmark's three workloads the update ran on 27-37% of the matvecs
  (CHANGES.md).  The choice is made per column from that column's numbers
  alone, so it too leaves a column's bits independent of its neighbours;
* on every fourth step, on a restart and once the Krylov space is
  exhausted, the projected blocks are diagonalized (``numpy.linalg.eigh``)
  and their k lowest pairs, or as many as the restart keeps, are used; a
  converged pair is thus seen at most three matvecs late.

The basis holds ``basis_size`` vectors, 2k + 24 and at least 32, before a
thick restart keeps max(k + 6, 2k) Ritz vectors.  The window was swept as
2k + f - 8 and at least f, for f from 20 to 48 (CHANGES.md).  Against the
earlier f = 36, f = 32 took from 1% fewer to 1.5% more matvecs on every
case tried (spectra of 3 to 10 pairs, ground splittings of N=3 and N=4
chains, a disorder stack, a 2,000-state clustered matrix), 17% fewer on
the splitting_n3 benchmark grid and 2% more on the other two benchmark
workloads, and read 5-21% fewer basis vectors in all; each projected
``eigh`` is cheaper too (32 x 32 in 100-125 us against 138-142 us at
36 x 36, best of 7 runs).  Smaller windows were faster still on the N=5
spectrum, f = 24 by about 3%, but cost more matvecs: f = 24 up to 7%
(and 8% on the cli_small benchmark workload), f = 20 up to 20%.

Arithmetic is real and the start vector is seeded gaussian noise, so a solve
is deterministic and its start has weight on every eigenvector; a start
inside one symmetry class of the operator would never reach the levels of
another.  A caller that already holds a good approximation passes it as
``start``: ``manybody.ground_splittings`` passes the sector part of the
asymptotic vacuum to its base columns and the padded base ground vectors
to its refined ones.  The seeded noise is then added at relative weight
``START_NOISE`` = 1e-6, which keeps the solve deterministic and gives
every eigenvector a weight ten decades above the rounding a Lanczos step
adds.  A weight is not a
guarantee that an eigenvector is found: one the start holds at 1e-6 shows
in the Krylov space only once the start's own components are resolved,
and a solve for k pairs may certify k pairs, each with a small residual,
before it does.  From an R-even start, an odd sector of the N=5, N_m=3
chain at g = 0.5 came back with a certified third level of -5.29156, where
a cold start returns the R-odd level -5.29653.  A start thus serves a
ground solve (k = 1), whose level it approximates, and
``manybody.sector_spectra`` refuses starts for more pairs.  The weight was
swept from 1e-3 to 1e-10 on the refinement solves of three splitting grids
(CHANGES.md): operator calls fell 285 -> 273 on the splitting_n3 benchmark
grid, 1,541 -> 1,268 on criterion 6's N = 3 grid and 405 -> 225 on its
N = 2 grid from 1e-3 to 1e-6; at 1e-10 they read 269, 1,250 and 185.
Every refined energy stayed inside its Kato-Temple target of a tight
solve.  A single start still spans one direction per eigenspace, so an
exactly degenerate level may come back fewer times than its multiplicity.
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

A pair is certified by one of two routes.  The residual gate, which every
solve has, accepts it once its explicit residual is below ``10 * tol``
times its column's scale; this is the rule for every caller that uses the
vectors: spectra, the ``overlap`` command and the doublet fidelity.  A
caller that needs the eigenvalues only passes ``energy_tol`` and may also
accept a pair by its Kato-Temple bound r^2 / (theta_2 - r_2 - theta_1)
(Kato, J. Phys. Soc. Jpn. 4, 334 (1949); Parlett, *The Symmetric
Eigenvalue Problem*, SIAM 1998, ch. 10-11): r and theta are the explicit
residual and Rayleigh quotient, and theta_2 - r_2, the next Ritz value of
the same projected block less its residual estimate, stands in for a lower
bound on the next level.  ``manybody.ground_splittings`` is that caller:
its vectors only warm-start the refinement, each base ground energy is
bounded by a tenth of the splitting floor, and each refined one, which
feeds only the convergence flag, by ``manybody.REFINE_SHARE`` of that
flag's threshold; where those bounds leave the flag open, the refined pair
is solved again to a quarter of the flag's margin.  The stand-in holds
only for a level the Krylov space has resolved.  A level just above the
lowest that the space has not yet separated from it leaves theta_2 too
high; with levels -1 and -1 + 1e-6 below a band in [0, 1], a target of
1e-12 stopped a 300-state solve with its energy 3e-9 high.  A sector's ground state is
separated from its next level by the sector's gap, and the splitting tests
check the certified energies against tight residual-gated ones.

Every solve owns its BLAS thread budget (``solve_threads``).  At or below
``THREADED_LIMIT`` states it runs on one OpenBLAS thread: a step there is
Python-bound, with GEMVs of some thousand rows and a projected block of
``basis_size`` rows, 32 for up to four pairs.  A second thread there saves
no time: it doubled the CPU time, and a solve ran two to ten times slower
while another process held the second core.  One thread also sums every long dot product in one order,
so the result does not depend on the core count.  Above the limit a solve
runs on the usable cores.  A cap never raises the count it finds, so a
solve in a worker of ``manybody.parallel_map``, whose OpenBLAS the pool
caps for the worker's life, gets the smaller of its own cap and the pool's.

fluxchain starts no threads of its own: ``parallel_map`` spreads work over
processes.  The OpenBLAS thread count is one setting of the whole process,
and ``solve_threads`` saves and restores it without a lock, so it is not
meant for solves run concurrently by threads of one process.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

#: seed of the start vector and of the directions taken after a breakdown
SEED = 7
#: a Gram-Schmidt pass that leaves less than this share of the norm is repeated
DGKS = 1 / np.sqrt(2)
#: the Gram-Schmidt update runs only where an overlap of w with the basis
#: exceeds this share of the norm of w; kept near the rounding level
ORTHO = 1e-14
#: matvecs a column may take before ``lowest_eigenpairs`` gives up
MAX_MATVECS = 60000
#: relative weight of the seeded noise added to a caller's start vector
START_NOISE = 1e-6

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


def cap_blas_threads(n: int) -> int | None:
    """Lower numpy's OpenBLAS to ``n`` threads, or leave it at the count it
    has if that is lower, and return that count; with another BLAS, change
    nothing and return None.  A pool worker calls it once for its life."""
    lib = _openblas()
    if lib is None:
        return None
    found = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(max(1, min(n, found)))
    return found


@contextmanager
def solve_threads(dim: int):
    """Cap OpenBLAS for one eigensolve on ``dim`` states: one thread at or
    below ``THREADED_LIMIT``, the usable cores above it, never more than the
    count found on entry, which comes back on exit.  Not for solves that
    overlap in threads of one process: each would restore its own count."""
    found = cap_blas_threads(1 if dim <= THREADED_LIMIT else usable_cores())
    try:
        yield
    finally:
        if found is not None:
            _openblas().scipy_openblas_set_num_threads64_(found)


class EigenConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best residuals seen."""

    def __init__(self, message, eigenvalues, residuals):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals

    def __reduce__(self):
        # pickle all three arguments, so the error crosses from a pool worker
        return type(self), (str(self), self.eigenvalues, self.residuals)


@dataclass
class LanczosResult:
    """The certified pairs of each column, in the column order of the stack.

    ``matvec_count`` is the number of operator calls the loop made, each on
    the whole stack; ``column_matvecs`` counts each column's matvecs up to
    its certification, the count a solve of that column alone would make,
    and ``column_updates`` the steps among them on which the column ran the
    Gram-Schmidt update.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    matvec_count: int
    restarts: int
    column_matvecs: np.ndarray
    column_updates: np.ndarray


def basis_size(dim: int, k: int) -> int:
    """Krylov vectors a solve for ``k`` pairs on ``dim`` states keeps, one
    more being the next Lanczos vector; the module docstring gives the
    measurement that set it."""
    return min(max(2 * k + 24, 32), dim)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each one BLAS call through matmul."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> float:
    """Classical Gram-Schmidt, twice, of ``w`` (in place) against the rows
    of ``basis``; returns the remaining norm."""
    w -= (basis @ w) @ basis
    w -= (basis @ w) @ basis
    return float(np.sqrt(w @ w))


def lowest_eigenpairs(matvec, dim: int, k: int, *, tol: float, scale,
                      start=None, energy_tol=None) -> LanczosResult:
    """k lowest eigenpairs of each of b real symmetric operators on ``dim``
    states, given only their stacked matvec.

    ``scale`` holds one operator-norm estimate per column, shape ``(b,)``;
    ``matvec`` maps a ``(b, dim)`` stack to the stack of products, row i by
    operator i.  ``tol`` is relative to each column's scale.  Residual
    estimates from the projected problem drive the iteration; explicit
    residuals ||A x - lambda x|| gate acceptance at ``10 * tol * scale``,
    except once the Krylov space is exhausted and the projection is exact.
    The Ritz vectors those residuals certify are returned as the columns of
    ``eigenvectors[i]``, and their Rayleigh quotients as ``eigenvalues[i]``.
    ``start``, a ``(b, dim)`` stack of finite nonzero rows, seeds the
    iteration in place of pure noise.

    ``energy_tol``, one absolute bound per column, is for a caller that
    needs the eigenvalues only: a column is also accepted once each pair j
    has a Kato-Temple bound ``r_j^2 / (theta_{j+1} - r_{j+1} - theta_j)``
    at or below it, with r_j the explicit residual and theta_j the
    Rayleigh quotient of pair j, and theta_{j+1}, r_{j+1} the next Ritz
    value of the projected block and its residual estimate.  Where that
    gap estimate is not positive the pair has only the residual gate.

    The solve runs under ``solve_threads(dim)``.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    scale = np.asarray(scale, dtype=float)
    if energy_tol is not None:
        energy_tol = np.broadcast_to(np.asarray(energy_tol, dtype=float), scale.shape)
    with solve_threads(dim):
        return _lanczos(matvec, dim, k, tol, scale, start, energy_tol)


def _kato_temple(res, theta, vals, est, energy_tol) -> np.ndarray:
    """Columns whose k pairs (residuals ``res``, values ``theta``) all have
    a Kato-Temple bound at or below ``energy_tol``, the gap to each taken
    from the next Ritz value ``vals`` less its residual estimate ``est``;
    a gap estimate below zero never passes."""
    k = theta.shape[1]
    gap = vals[:, 1 : k + 1] - est[:, 1 : k + 1] - theta
    return np.all(res * res <= energy_tol[:, None] * gap, axis=1)


def _lanczos(matvec, dim, k, tol, scale, start, energy_tol) -> LanczosResult:
    b = scale.size
    size = basis_size(dim, k)
    keep = min(max(k + 6, 2 * k), size - 2)
    gate = tol * scale

    # one generator per column, as a lone solve of that column would draw
    rngs = [np.random.default_rng(SEED) for _ in range(b)]
    v = np.stack([rng.standard_normal(dim) for rng in rngs])
    if start is not None:
        start = np.asarray(start, dtype=float)
        norm = np.sqrt(_dots(start, start)) if start.shape == (b, dim) else np.zeros(1)
        if not np.all(np.isfinite(norm) & (norm > 0.0)):
            raise ValueError(f"start must hold {b} finite nonzero ({dim},) rows")
        v = start / norm[:, None] + START_NOISE * (v / np.sqrt(_dots(v, v))[:, None])
    # the bases are row-stacked, so every slice Q[:, lo:m] is a (b, m - lo,
    # dim) view whose products run as one BLAS call per column
    Q = np.empty((b, size + 1, dim))
    Q[:, 0] = v / np.sqrt(_dots(v, v))[:, None]
    # projected blocks Q^T A Q; row m holds the couplings of Q[:, m] to
    # Q[:, lo:m] that the recurrence already knows before its matvec
    proj = np.zeros((b, size, size))
    m = lo = restarts = 0
    # a column's matvecs are the steps of the stack while it runs plus its
    # own certifications; ``lag`` is the most certifications of a running one
    steps = lag = cert_calls = 0
    certs = np.zeros(b, dtype=int)
    counts = np.zeros(b, dtype=int)
    updates, out_updates = np.zeros(b, dtype=int), np.zeros(b, dtype=int)
    done = np.zeros(b, dtype=bool)
    out_vals, out_res = np.empty((b, k)), np.empty((b, k))
    out_vecs = None
    best_vals = best_res = None

    while steps + lag < MAX_MATVECS:
        q = Q[:, m]
        w = matvec(q)
        steps += 1
        if m - lo == 1:
            w -= proj[:, m, lo, None] * Q[:, lo]
        else:
            w -= (proj[:, m, None, lo:m] @ Q[:, lo:m])[:, 0]
        proj[:, m, m] = alpha = _dots(q, w)
        w -= alpha[:, None] * q
        # one Gram-Schmidt pass removes the rounding the recurrence left;
        # a second runs, column by column, where it cancelled most of w (DGKS)
        basis = Q[:, : m + 1]
        before = np.sqrt(_dots(w, w))
        corr = (basis @ w[:, :, None])[:, :, 0]
        beta = before.copy()
        # the update runs, column by column, only where the reading pass
        # found more than rounding; a second runs where it cancelled most of
        # w (DGKS)
        for i in np.flatnonzero(np.abs(corr).max(axis=1) > ORTHO * before):
            w[i] -= corr[i] @ basis[i]
            beta[i] = np.sqrt(w[i] @ w[i])
            if beta[i] < DGKS * before[i]:
                extra = basis[i] @ w[i]
                w[i] -= extra @ basis[i]
                corr[i] += extra
                beta[i] = np.sqrt(w[i] @ w[i])
            proj[i, m, : m + 1] += corr[i]
            updates[i] += 1
        proj[:, : m + 1, m] = proj[:, m, : m + 1]
        m += 1

        restart = m == size
        # the projected blocks are solved on every fourth step only, and on
        # a restart or once the Krylov space is exhausted
        if restart or m >= dim or m % 4 == 0:
            vals, svecs = np.linalg.eigh(proj[:, :m, :m])
            est = np.abs(beta[:, None] * svecs[:, m - 1])
            best_vals, best_res = vals[:, : min(k, m)], est[:, : min(k, m)]
            converged = np.all(best_res < gate[:, None], axis=1) & (m >= k)
            # a bound on the energies needs the next Ritz pair, so m > k
            bounded = np.zeros(b, dtype=bool)
            if energy_tol is not None and m > k:
                bounded = _kato_temple(best_res, best_vals, vals, est, energy_tol)
            ready = ~done & (m >= dim or converged | bounded)
            if ready.any():
                ritz = svecs[:, :, :k].transpose(0, 2, 1) @ Q[:, :m]
                ritz /= np.sqrt(_dots(ritz, ritz))[:, :, None]
                rq, explicit = np.empty((b, k)), np.empty((b, k))
                for j in range(k):
                    hx = matvec(ritz[:, j])
                    rq[:, j] = _dots(ritz[:, j], hx)
                    hx -= rq[:, j, None] * ritz[:, j]
                    explicit[:, j] = np.sqrt(_dots(hx, hx))
                cert_calls += k
                certs[ready] += k
                # estimates may be optimistic; a column they fooled iterates on
                certified = np.all(explicit < 10.0 * gate[:, None], axis=1)
                if bounded.any():
                    certified |= bounded & _kato_temple(explicit, rq, vals, est, energy_tol)
                accept = ready & (m >= dim or certified)
                out_vals[accept], out_res[accept] = rq[accept], explicit[accept]
                # the first certified Ritz vectors become the output, and
                # later columns are copied in, so no extra k x dim block is held
                if out_vecs is None:
                    out_vecs = ritz
                else:
                    np.copyto(out_vecs, ritz, where=accept[:, None, None])
                counts[accept] = steps + certs[accept]
                out_updates[accept] = updates[accept]
                done |= accept
                if done.all():
                    return LanczosResult(out_vals, out_vecs.transpose(0, 2, 1), out_res,
                                         steps + cert_calls, restarts, counts, out_updates)
                lag = int(certs[~done].max())

        broke = beta < 1e-13 * scale
        if not broke.any():
            np.divide(w, beta[:, None], out=Q[:, m])
        else:
            np.divide(w, np.where(broke, 1.0, beta)[:, None], out=Q[:, m])
            for i in np.flatnonzero(broke):
                # invariant subspace hit: continue in a seeded random
                # direction, which no recurrence couples to the basis
                r = rngs[i].standard_normal(dim)
                Q[i, m] = r / _orthogonalize(Q[i, :m], r)
            beta[broke] = 0.0

        if restart:
            # thick restart: rotate to the lowest Ritz vectors, keep the
            # residual direction as the next Lanczos vector.  The block on
            # the kept Ritz vectors is diagonal, and the residual direction
            # couples to them through the arrow beta * (last row of svecs).
            kept = svecs[:, :, :keep].transpose(0, 2, 1) @ Q[:, :m]
            Q[:, keep] = Q[:, m]
            Q[:, :keep] = kept
            proj[:] = 0.0
            proj[:, range(keep), range(keep)] = vals[:, :keep]
            proj[:, keep, :keep] = beta[:, None] * svecs[:, m - 1, :keep]
            m, lo = keep, 0
            restarts += 1
        else:
            proj[:, m, m - 1] = beta
            lo = m - 1

    raise EigenConvergenceError(
        f"no convergence after {steps + lag} matvecs (best residual estimates "
        f"{np.array2string(np.asarray(best_res), precision=3)})",
        best_vals, best_res,
    )

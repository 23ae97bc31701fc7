"""Exact diagonalization of the N-spin, multimode spin-boson chain.

Hamiltonian (hbar = 1, one angular-frequency unit throughout):

    H = sum_k w_k a_k^dag a_k
      + sum_j (wF_j / 2) sz_j
      + sum_k sum_j i W_k sqrt(2/N) f_k(j) (a_k - a_k^dag) sx_j

with spatial weights f_k(j) fixed by the standing-wave gradients across the
cells (cosine pattern for odd k, sine for even k, the alternating
zone-boundary pattern at k = N).

Basis packing puts the N spin bits in the low bits of the index and the mode
occupations above them in mixed radix, mode 1 fastest; ``BasisIndexer`` is
the one owner of that layout.  H commutes with the Z2 parity (product of sz
times photon-number parity), and every solve works in one parity sector.
There the matvec never materializes H: a sector is an array of occupation
rows by columns of spin bits 2..N, since parity fixes bit 1, and in the
gauge |n> -> i^n |n> per mode the sector operator is real, a diagonal minus,
per mode, one small spin-space product and two contiguous shifts of each row
by that mode's stride (``HamiltonianEngine``).  Everything but the diagonal
is the same in both sectors and for any atomic frequencies, so one engine
applies H to a stack of sectors of one chain shape, and ``sector_spectra``
solves such a stack at once.  One rule, ``_admit``, decides whether a chain
is small enough to solve: it refuses a solve whose columns would each hold
more than ``SOLVE_BYTES`` of Krylov basis or dense matrix, charging every
column its whole parity sector.  ``sector_spectra`` runs it before any basis
is built, and ``ground_splittings`` on its refined columns before the first
solve, so a spec that is never solved is never refused for its size.  A
sector's size alone picks the eigensolver: dense at or below
``DENSE_LIMIT`` states, Lanczos above.
Both routes run under ``krylov.solve_threads``: one OpenBLAS thread up to
``THREADED_LIMIT`` states, so a sector's energies do not depend on the core
count, and the usable cores above it.  A full-space spectrum is the merge
of the two sector spectra.  Public vectors stay in the documented complex
basis and on their sector's indexer; ``BasisIndexer.indices``, built only
when read, places one in the full space.

Ground-state splittings (``ground_splittings``) are computed sector by
sector; subtracting two nearly equal full-space eigenvalues cannot reach
the 1e-12 level that the sector route resolves.  Splittings below
``NUMERICAL_FLOOR`` times the atomic frequency are flagged as floor-limited,
and each reported Lanczos ground energy is certified to a tenth of that
floor by its Kato-Temple bound, or by the residual gate (``krylov``).  Each
base Lanczos column starts from the sector part of the asymptotic vacuum
V+ (``_vacuum_start``), each refined one from the padded base vector.  The
energies of the refinement solve feed only the convergence flag, which
compares two splittings to ``tol`` relative, so each is certified to
``REFINE_SHARE`` of that flag's threshold, tol times the base splitting,
and to no less than a tenth of the floor; a point whose flag those bounds
leave open is solved again, tighter.

A clean chain (all atomic frequencies equal) also commutes with the mirror
R: atom j -> N+1-j, times (-1)^n_k on each mode odd under it (even k < N,
and k = N at even N).  Both sector ground states are R-even, so a clean
chain's ground pair (``ground_columns``: ``ground_splittings``, the CLI's
``overlap`` and the doublet fidelity) is solved in the R = +1 half of each
sector, the column labels ('even', +1) and ('odd', +1).  That premise is
tested against the Kronecker oracle for N = 2..4, every N_m and g = 0..1,
and the folded ground energies against the whole sectors to 1e-12.  On a
sector's rows R is the indexer's spin table bit-reversed times a sign per
occupation (``_mirror``), and each engine builds the fold of its own labels
from it.  A half holds (D + tr R) / 2 of its sector's D states: 50-56% when a
mode is odd under R, and 62-76% when none is (N_m = 1).  At odd N the two
halves have one dimension; at even N they differ (N=2 at cutoff 32: 50 and
49 of 66 states; N=4, N_m=2 at g=0.7: 740 and 730 of 1,400), and each is
then its own stack.  A stack holds parity sectors or mirror-even halves,
never both.  Excited levels are not folded: disorder ensembles,
``lowest_spectrum`` and every spectrum keep whole parity sectors, which hold
the R = -1 levels too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .krylov import basis_size, cap_blas_threads, lowest_eigenpairs, solve_threads, usable_cores

#: splittings below this (relative to omega_F) are numerically unresolvable
NUMERICAL_FLOOR = 1e-13

#: share of the convergence threshold ``tol`` x delta that the Kato-Temple
#: bound of each refined ground energy may take in ``ground_splittings``;
#: with both energies inside it the refined splitting is off by at most 20%
#: of the threshold it is compared with, and a flag whose margin that leaves
#: open is decided by a tighter solve of its point
REFINE_SHARE = 0.1

#: sector dimension at or below which a solve is dense, above it Lanczos.
#: Dense numpy.linalg.eigh computes every pair; on one BLAS thread, as every
#: solve this small runs, it takes as long as Lanczos near 200 states for
#: one level and 300 for four, and at 400 states 19-24 ms against 9-13 ms
#: (2 cores; CHANGES.md).  For an even+odd pair solved as one stack the
#: crossover is 160-240 states at one level and 240-320 at four; at 400
#: states the pair takes 47-55 ms dense against 10-22 ms by Lanczos
DENSE_LIMIT = 400

#: bytes of Krylov basis, or of dense sector matrices, that one stacked
#: solve of ``sector_spectra`` may hold; the next columns start a new stack.
#: Per-column time of a ground solve against stack width (fresh process per
#: size, 2 cores, 37-vector basis; CHANGES.md) falls 2-2.7x at 462-740
#: states and 1.9x at 1,500, and stops falling once a stack holds about
#: 1.8 MB (4 columns at 1,500 states, 2 at 3,000); a pair gains 3-16% at
#: 5,500-11,000 states, for 3.3-6.5 MB of basis.  A ground solve keeps
#: 33 vectors (``krylov.basis_size``), so the same bytes hold 5 columns at
#: 1,500 states, 2 at 3,000, and a pair up to 3,971 states
STACK_BYTES = 2 * 2**20

#: bytes of Krylov basis, or of dense matrix, that one column's solve in
#: ``sector_spectra`` may hold, each column charged its whole parity
#: sector: 8 x 3,000,000 states x 49 vectors, the largest solve of 10
#: levels that a 6,000,000-state full space once allowed.  A ground solve
#: (33 vectors, ``krylov.basis_size``) may hold up to 4,454,545 states, a
#: solve of 10 levels (45 vectors) up to 3,266,666
SOLVE_BYTES = 8 * 3_000_000 * 49


class ManyBodyError(ValueError):
    pass


def spatial_weights(n_atoms: int, n_modes: int) -> tuple[tuple[float, ...], ...]:
    """Per-mode, per-site coupling weights f_k(j), k = 1..n_modes, j = 1..N."""
    if not 1 <= n_modes <= n_atoms:
        raise ManyBodyError("need 1 <= n_modes <= n_atoms")
    rows = []
    for k in range(1, n_modes + 1):
        row = []
        for j in range(1, n_atoms + 1):
            if k == n_atoms:
                row.append((-1.0) ** j / math.sqrt(2.0))
            elif k % 2 == 1:
                row.append(math.cos(k * math.pi * (j - (n_atoms + 1) / 2.0) / n_atoms))
            else:
                row.append(math.sin(k * math.pi * (j - (n_atoms + 1) / 2.0) / n_atoms))
        rows.append(tuple(row))
    return tuple(rows)


def collective_rabi_ratios(n_atoms: int, n_modes: int) -> np.ndarray:
    """W_k / W_1 at fixed circuit constants: sin(k pi/2N) / (sin(pi/2N) sqrt(k)).

    The same dispersion ratio is used for the zone-boundary mode k = N.  The
    continuum mode function overweights that mode by sqrt(2) on the N-cell
    lattice; carrying the sqrt(2) into W_N would make every N = 2 pseudospin
    configuration degenerate and no doublet would form, so the lattice
    normalization is used here.
    """
    s1 = math.sin(math.pi / (2.0 * n_atoms))
    return np.array(
        [math.sin(k * math.pi / (2.0 * n_atoms)) / (s1 * math.sqrt(k))
         for k in range(1, n_modes + 1)]
    )


def choose_cutoffs(n_atoms: int, n_modes: int, g: float, safety: float = 4.0,
                   even_floor: int = 4) -> tuple[int, ...]:
    """Per-mode Fock cutoffs sized from the ultrastrong-coupling amplitudes.

    Displaced (odd) modes get ceil(|alpha|^2 + safety |alpha| + safety^2);
    undisplaced modes keep the fixed floor.  Monotone in ``safety``.
    """
    if not 1.0 <= safety < math.inf:
        raise ManyBodyError(f"safety must be finite and at least 1, got {safety}")
    if even_floor < 1:
        raise ManyBodyError(f"even_floor must be at least 1, got {even_floor}")
    from .asymptotics import coherent_amplitudes

    amps = np.abs(coherent_amplitudes(n_atoms, n_modes, g))
    cuts = []
    for a in amps:
        if a == 0.0:
            cuts.append(even_floor)
        else:
            cuts.append(max(even_floor, math.ceil(a * a + safety * a + safety * safety)))
    return tuple(int(c) for c in cuts)


@dataclass(frozen=True)
class ManyBodySpec:
    """The truncated chain: N atoms, N_m modes, the per-atom coupling g, the
    atomic frequencies and the Fock cutoffs.

    ``omega_atoms`` is per site from the outset so disorder costs nothing.
    Mode frequencies, collective couplings W_k and spatial weights f_k(j)
    follow from these in units of mode 1.
    """

    n_atoms: int
    n_modes: int
    g: float
    omega_atoms: tuple[float, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self):
        if self.n_atoms < 1 or not 1 <= self.n_modes <= self.n_atoms:
            raise ManyBodyError("need n_atoms >= 1 and 1 <= n_modes <= n_atoms")
        if not 0 <= self.g < math.inf:
            raise ManyBodyError(f"g must be finite and non-negative, got {self.g}")
        if len(self.omega_atoms) != self.n_atoms:
            raise ManyBodyError("omega_atoms length mismatch")
        if not all(math.isfinite(w) for w in self.omega_atoms):
            raise ManyBodyError(
                f"atomic frequencies omega_F must be finite, got {self.omega_atoms}")
        if len(self.cutoffs) != self.n_modes:
            raise ManyBodyError("cutoffs length mismatch")
        if any(c < 1 for c in self.cutoffs):
            raise ManyBodyError("cutoffs must be at least 1")

    @classmethod
    def from_coupling(cls, n_atoms: int, n_modes: int, g: float, *,
                      omega_atoms=None,
                      cutoffs=None, safety: float = 4.0,
                      even_floor: int = 4) -> "ManyBodySpec":
        """The standard resonant chain at per-atom coupling g.

        Atomic frequencies default to resonance with mode 1, and cutoffs to
        ``choose_cutoffs`` at ``safety`` and ``even_floor``.
        """
        if omega_atoms is None:
            omega_atoms = (1.0,) * n_atoms
        if cutoffs is None:
            cutoffs = choose_cutoffs(n_atoms, n_modes, g, safety=safety,
                                     even_floor=even_floor)
        return cls(n_atoms=n_atoms, n_modes=n_modes, g=float(g),
                   omega_atoms=tuple(float(w) for w in omega_atoms),
                   cutoffs=tuple(int(c) for c in cutoffs))

    @property
    def omega_modes(self) -> tuple[float, ...]:
        """Mode frequencies w_k = k, in units of mode 1."""
        return tuple(float(k) for k in range(1, self.n_modes + 1))

    @property
    def rabi(self) -> tuple[float, ...]:
        """Collective couplings W_k, following the dispersion ratios with
        W_1 = g sqrt(N)."""
        return tuple(self.g * math.sqrt(self.n_atoms) * r
                     for r in collective_rabi_ratios(self.n_atoms, self.n_modes))

    @property
    def weights(self) -> tuple[tuple[float, ...], ...]:
        """Spatial weights f_k(j), one row per mode."""
        return spatial_weights(self.n_atoms, self.n_modes)

    @property
    def couplings(self) -> np.ndarray:
        """Coupling prefactors c_kj = W_k sqrt(2/N) f_k(j), one row per mode."""
        return np.array(self.weights) * (
            np.array(self.rabi)[:, None] * math.sqrt(2.0 / self.n_atoms))

    @property
    def spin_dim(self) -> int:
        return 2**self.n_atoms

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dimension(self) -> int:
        d = self.spin_dim
        for c in self.cutoffs:
            d *= c + 1
        return d

    def with_cutoffs(self, cutoffs) -> "ManyBodySpec":
        return replace(self, cutoffs=tuple(int(c) for c in cutoffs))

    def with_omega_atoms(self, omega_atoms) -> "ManyBodySpec":
        return replace(self, omega_atoms=tuple(float(w) for w in omega_atoms))


SECTORS = ("even", "odd")


def _popcount(x: np.ndarray, bits: int) -> np.ndarray:
    pop = np.zeros_like(x)
    for b in range(bits):
        pop += (x >> b) & 1
    return pop


def spin_diagonal(frequencies) -> np.ndarray:
    """sum_j (w_j / 2) sz_j over the 2^N spin patterns, one w_j per atom.

    Atom j sits in bit j-1; a set bit is the upper level, sz = +1.
    """
    spins = np.arange(2 ** len(frequencies))
    out = np.zeros(spins.size)
    for j, w in enumerate(frequencies):
        out += 0.5 * w * (((spins >> j) & 1) * 2 - 1)
    return out


def _mode_table(per_mode) -> np.ndarray:
    """sum_m per_mode[m][n_m] over every occupation pattern, mode 1 fastest."""
    out = np.zeros(1, dtype=np.result_type(*per_mode))
    for vals in per_mode:
        out = (vals[:, None] + out[None, :]).reshape(-1)
    return out


@lru_cache(maxsize=16)
def _spin_table(n: int, sector: str) -> np.ndarray:
    """``BasisIndexer.spins`` of an N-atom basis: the spin pattern of each
    column for each photon-total parity.  Read-only, and built once per
    chain length and sector, which every basis of a run shares."""
    spins = np.arange(2**n)
    if sector != "full":
        # parity fixes bit 1 once the photon total and bits 2..N are known
        rest = spins[: 2 ** (n - 1)]
        spins = 2 * rest + (n + (sector == "odd") + np.arange(2)[:, None]
                            + _popcount(rest, n - 1)) % 2
    return np.broadcast_to(spins, (2, spins.shape[-1]))


class BasisIndexer:
    """The packed basis of a spec, the whole space or one parity sector: the
    one owner of its layout.

    A full index is f 2^N + s, with atom j's level in bit j-1 of the spin
    pattern s and the occupations in f, a mixed-radix number with mode 1 the
    lowest digit.  A basis is the array ``shape``, (n_Nm, ..., n_1, column):
    one row per occupation pattern f, and one column per spin pattern of the
    whole space.  In a parity sector a row's photon total fixes spin bit 1,
    so a column is spin bits 2..N.  The basis keeps ``photons``, each row's
    photon total, and ``spins``, the spin pattern of each column for each
    photon-total parity (at most 2 x 2^(N-1) entries), so the state at
    (f, c) has spin pattern ``spins[photons[f] % 2, c]``.  ``indices``, the
    sorted full-space index of each state, is built only when read;
    ``product`` places a product state without it.
    """

    def __init__(self, spec: ManyBodySpec, sector: str):
        if sector not in ("full",) + SECTORS:
            raise ManyBodyError("sector must be 'full', 'even' or 'odd'")
        self.spec, self.sector = spec, sector
        self.photons = _mode_table([np.arange(dim) for dim in spec.mode_dims])
        self.spins = _spin_table(spec.n_atoms, sector)
        self.shape = tuple(reversed(spec.mode_dims)) + (self.spins.shape[1],)
        self.dimension = math.prod(self.shape)

    @cached_property
    def indices(self) -> np.ndarray:
        """The full-space index of each state, in increasing order."""
        rows = np.arange(self.photons.size)[:, None] * self.spec.spin_dim
        return (rows + self.spins[self.photons % 2]).reshape(-1)

    def product(self, modes: np.ndarray, spin: np.ndarray) -> np.ndarray:
        """The amplitudes on this basis of the product state whose amplitude
        at full index f 2^N + s is modes[f] spin[s]."""
        return (modes[:, None] * spin[self.spins][self.photons % 2]).reshape(-1)


@dataclass
class Wavefunction:
    """Complex amplitudes over a BasisIndexer."""

    indexer: BasisIndexer
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.indexer.dimension,):
            raise ManyBodyError("amplitude array does not match the indexer")
        if not np.all(np.isfinite(self.data)):
            raise ManyBodyError("non-finite amplitudes")


def _parity(sector) -> str:
    """The parity sector of a column label, 'even' or 'odd'."""
    return sector if isinstance(sector, str) else sector[0]


def _stack_columns(columns) -> list:
    """``columns`` as a list of (spec, sector) pairs of one chain shape; a
    sector is 'even', 'odd', or the mirror-even half ('even', +1) or
    ('odd', +1) of a parity sector, for equal atomic frequencies only."""
    columns = list(columns)
    if not columns:
        raise ManyBodyError("need at least one (spec, sector) column")
    for s, sec in columns:
        if sec in SECTORS:
            continue
        if not (isinstance(sec, tuple) and len(sec) == 2 and sec[0] in SECTORS
                and sec[1] == 1):
            raise ManyBodyError("sector must be 'even', 'odd', ('even', +1) or ('odd', +1)")
        if len(set(s.omega_atoms)) > 1:
            raise ManyBodyError(f"the mirror-even column {sec} needs equal atomic "
                                f"frequencies, got {s.omega_atoms}")
    spec = columns[0][0]
    if any(s.with_omega_atoms(spec.omega_atoms) != spec for s, _ in columns):
        raise ManyBodyError("the columns of a stack differ in atomic frequencies "
                            "and sector only")
    return columns


@lru_cache(maxsize=16)
def _mirror_columns(n: int, sector: str) -> np.ndarray:
    """The column of each entry of an N-atom sector's spin table (``_spin_table``)
    once its spin pattern is bit-reversed, atom j taken to atom N+1-j; read-only."""
    spins = _spin_table(n, sector)
    mirrored = np.zeros_like(spins)
    for j in range(n):
        mirrored |= ((spins >> j) & 1) << (n - 1 - j)
    cols = mirrored >> 1
    cols.flags.writeable = False
    return cols


def _mirror_odd(n: int, n_modes: int) -> list[bool]:
    """Whether each mode's weights are odd under the mirror of an N-atom
    chain: even k < N, and k = N at even N."""
    return [k < n and k % 2 == 0 or k == n and n % 2 == 0 for k in range(1, n_modes + 1)]


@lru_cache(maxsize=4)
def _mirror(n: int, mode_dims: tuple, sector: str) -> tuple[np.ndarray, np.ndarray]:
    """The mirror R on the rows of an N-atom parity sector with these mode
    dimensions, as (cols, sign): (R v)[f, c] = sign[f] v[f, cols[photons[f] % 2, c]].

    R maps atom j to atom N+1-j and multiplies by (-1)^n_k on each mode
    whose weights are odd under that map (``_mirror_odd``).  It keeps every
    occupation and so each row's spin table; ``cols`` is the column of each
    table entry bit-reversed (``_mirror_columns``), and ``sign`` the parity
    of the occupations of the R-odd modes, per row.  The tables do not
    depend on the coupling or the atomic frequencies, so the fold of each
    engine shares one read-only copy; the four most recent stay cached, the
    base and refined sectors of a ``ground_splittings`` call.
    """
    cols = _mirror_columns(n, sector)
    odd = _mirror_odd(n, len(mode_dims))
    flips = _mode_table([o * np.arange(d) for o, d in zip(odd, mode_dims)])
    sign = 1.0 - 2.0 * (flips % 2)
    sign.flags.writeable = False
    return cols, sign


def _column_dimension(spec: ManyBodySpec, sector) -> int:
    """The states of a column: D of its parity sector, or (D + tr R) / 2 of
    a mirror-even half, its R = +1 eigenspace.

    tr R = sum_f sign[f] fixed[photons[f] % 2] (``_mirror``), where fixed[p]
    counts the spin columns that bit reversal keeps in place at photon
    parity p.  Summed mode by mode, sum_f sign[f] = a and
    sum_f sign[f] (-1)^photons[f] = b, each a product of per-mode sums of
    (-1)^n over 0 <= n < d, which is d mod 2, so
    tr R = fixed[0] (a + b) / 2 + fixed[1] (a - b) / 2.
    """
    if isinstance(sector, str):
        return spec.dimension // 2
    cols = _mirror_columns(spec.n_atoms, sector[0])
    fixed = np.count_nonzero(cols == np.arange(cols.shape[1]), axis=1).tolist()
    a = b = 1
    for odd, d in zip(_mirror_odd(spec.n_atoms, spec.n_modes), spec.mode_dims):
        a *= d % 2 if odd else d
        b *= d if odd else d % 2
    return (spec.dimension // 2 + (fixed[0] * (a + b) + fixed[1] * (a - b)) // 2) // 2


def _mirror_fold(basis: BasisIndexer):
    """The index map of a mirror-even column onto the coordinates of its
    parity sector ``basis``: (keep, back, spread, gain).

    In sector coordinates (R v)[i] = sign[i] v[perm[i]] (``_mirror``).  The
    R = +1 half keeps one representative per pair i < perm[i],
    u = (e_i + sign[i] e_perm[i]) / sqrt(2), and each fixed point of sign
    +1.  A folded x unfolds to ``x[back] * spread``, and an R-even sector
    vector y folds to its coordinates ``y[keep] * gain``.
    """
    cols, sign = _mirror(basis.spec.n_atoms, basis.spec.mode_dims, basis.sector)
    width, dim = cols.shape[1], basis.dimension
    perm = (np.arange(sign.size)[:, None] * width + cols[basis.photons % 2]).reshape(-1)
    sign = np.repeat(sign, width)
    every = np.arange(dim)
    keep = np.flatnonzero((perm > every) | ((perm == every) & (sign > 0)))
    pairs = perm[keep] != keep
    back = np.zeros(dim, dtype=np.intp)
    back[keep] = back[perm[keep]] = np.arange(keep.size)
    spread = np.zeros(dim)
    spread[keep] = np.where(pairs, math.sqrt(0.5), 1.0)
    spread[perm[keep][pairs]] = sign[keep][pairs] * math.sqrt(0.5)
    return keep, back, spread, np.where(pairs, math.sqrt(2.0), 1.0)


class HamiltonianEngine:
    """The real operators of a stack of parity sectors, or of mirror-even
    halves of them, applied matrix-free.

    A column of the stack is a (spec, sector) pair; the columns of one
    engine share N, N_m, g, the cutoffs and their dimension, and may differ
    in sector and atomic frequencies.  Sector states sit in the layout of
    their ``BasisIndexer``, (occupations, spin bits 2..N).  In the gauge
    |n> -> i^n |n> per mode, H restricted to a sector is

        diag - sum_m (a_m + a_m^dag) (x) X_m,    X_m = sum_j c_mj sx_j,

    where sx_1 acts as the identity on bits 2..N and sx_j flips bit j-1 of
    them, so each X_m is one real 2^(N-1) square matrix, the same in both
    sectors.  So are the sqrt(n) factors and ``phase`` (i^photons per state),
    which maps sector vectors of this operator to the documented complex
    basis; only ``diagonal`` has one row per column.  States one stride of
    mode m apart in a row differ by one quantum of that mode, so its ladder
    is two contiguous shifts of each row by the stride, weighted by
    sqrt(n_m + 1), which is zero where n_m sits at its cutoff, so no shift
    reaches the next block of the higher modes.

    A stack holds parity sectors or mirror-even halves, never both.  A
    mirror-even column, ('even', +1) or ('odd', +1), solves the R = +1 half
    of its sector: the engine builds the ``_mirror_fold`` of each of its
    labels, its vectors hold the coordinates of that half, ``dimension``
    counts them, and ``matvec`` is ``fold(H unfold(x))``, one flat gather on
    each side of the sector product, since H keeps R-even vectors R-even.
    """

    def __init__(self, columns):
        """The stack of (spec, sector) ``columns``, in order."""
        self.columns = _stack_columns(columns)
        spec = self.spec = self.columns[0][0]
        labels = dict.fromkeys(sec for _, sec in self.columns)
        if len({isinstance(sec, str) for sec in labels}) > 1:
            raise ManyBodyError("a stack holds parity sectors or mirror-even halves, "
                                "not both")
        # one basis per parity; the rows, their photon totals and the shape
        # are the same in both
        self._bases = bases = {sec: BasisIndexer(spec, _parity(sec)) for sec in labels}
        self._basis = basis = bases[self.columns[0][1]]
        sector_dim = self.dimension = basis.dimension
        # fold and unfold of the whole stack, each one flat gather over its
        # rows and a scaling; None for parity sectors
        self._fold = self._unfold = None
        if isinstance(self.columns[0][1], tuple):
            maps = {sec: _mirror_fold(bases[sec]) for sec in labels}
            sizes = {keep.size for keep, *_ in maps.values()}
            if len(sizes) > 1:
                raise ManyBodyError("the columns of a stack differ in dimension")
            self.dimension = sizes.pop()
            keep, back, spread, gain = (np.stack(a) for a in zip(*(
                maps[sec] for _, sec in self.columns)))
            rows = np.arange(len(self.columns))[:, None]
            self._fold = (keep + rows * sector_dim, gain)
            self._unfold = (back + rows * self.dimension, spread)

        # each column's diagonal straight from its spin and mode tables
        mode_e = _mode_table([w * np.arange(dim, dtype=float)
                              for w, dim in zip(spec.omega_modes, spec.mode_dims)])
        self.diagonal = np.stack([
            (spin_diagonal(s.omega_atoms)[bases[sec].spins][basis.photons % 2]
             + mode_e[:, None]).reshape(-1) for s, sec in self.columns])

        self.couplings = spec.couplings
        n, half = spec.n_atoms, basis.shape[-1]
        rest = np.arange(half)
        self._terms = []
        # states one stride apart in a row differ by one quantum of mode m
        stride = half
        for m, dim in enumerate(spec.mode_dims):
            x_m = self.couplings[m, 0] * np.eye(half)
            for j in range(1, n):
                x_m[rest, rest ^ (1 << (j - 1))] += self.couplings[m, j]
            if np.any(x_m):
                # sqrt(n_m + 1) at each state that has a state one stride
                # on, and 0 where n_m sits at its cutoff, so a shift never
                # reaches the next block of the higher modes; tiled from one
                # period, so building it allocates no row-sized temporaries
                period = np.repeat(np.append(np.sqrt(np.arange(1.0, dim)), 0.0), stride)
                sq = np.tile(period, sector_dim // period.size)[:-stride]
                self._terms.append((x_m, stride, sq))
            stride *= dim

    # indexers and phase serve returned vectors and warm starts only, so
    # they are built on first use and a solve without vectors never holds them
    @cached_property
    def indexers(self) -> list:
        """Each column's ``BasisIndexer``, that of its parity sector."""
        return [BasisIndexer(s, _parity(sec)) for s, sec in self.columns]

    @cached_property
    def phase(self) -> np.ndarray:
        """i^photons per sector state."""
        return np.repeat(np.array([1, 1j, -1, -1j])[self._basis.photons % 4],
                         self._basis.shape[-1])

    def _apply(self, rows: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
        v = rows.reshape(-1, diagonal.shape[-1])
        out = v * diagonal
        for x_m, stride, sq in self._terms:
            # one spin-space product per row, so a row's bits never depend
            # on the rows stacked beside it
            t = (v.reshape(len(v), -1, self._basis.shape[-1]) @ x_m).reshape(v.shape)
            # <n| a |n+1> = <n+1| a^dag |n> = sqrt(n+1), as two contiguous
            # shifts of each row by the stride of mode m
            out[:, :-stride] -= sq * t[:, stride:]
            out[:, stride:] -= sq * t[:, :-stride]
        return out.reshape(rows.shape)

    def fold(self, y: np.ndarray) -> np.ndarray:
        """The column coordinates of a (b, sector dimension) stack of sector
        vectors, R-even where the columns are mirror-even halves; a parity
        sector's vectors are their own coordinates."""
        if self._fold is None:
            return y
        keep, gain = self._fold
        x = np.ascontiguousarray(y).reshape(-1).take(keep)
        x *= gain
        return x

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """The sector vectors of a (b, dim) stack of column coordinates, the
        inverse of ``fold``."""
        if self._unfold is None:
            return x
        back, spread = self._unfold
        y = np.ascontiguousarray(x).reshape(-1).take(back)
        y *= spread
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H x for a stack (b, dim), row i by column i."""
        want = (len(self.columns), self.dimension)
        if x.shape != want:
            raise ManyBodyError(f"input shape {x.shape} is not the {want} stack")
        return self.fold(self._apply(self.unfold(np.ascontiguousarray(x)), self.diagonal))

    def dense(self) -> np.ndarray:
        """The real matrices of the stack, (b, dim, dim): the coupling block
        of each column's sector or mirror-even half, the same for every
        column of one sector label, plus each column's diagonal."""
        dim, sector_dim = self.dimension, self.diagonal.shape[1]
        eye, zero = np.eye(dim), np.zeros(sector_dim)
        if self._fold is None:
            h = np.repeat(self._apply(eye, zero)[None], len(self.columns), axis=0)
            h[:, range(dim), range(dim)] = self.diagonal
            return h
        # row i of the stacked maps is column i's map, offset by i rows
        (keep, gain), (back, spread) = self._fold, self._unfold
        blocks = {}
        for i, (_, sec) in enumerate(self.columns):
            if sec not in blocks:
                blocks[sec] = (self._apply(eye[:, back[i] - i * dim] * spread[i], zero)
                               [:, keep[i] - i * sector_dim] * gain[i])
        h = np.stack([blocks[sec] for _, sec in self.columns])
        h[:, range(dim), range(dim)] = self.diagonal.reshape(-1).take(keep)
        return h

    def norm_bound(self) -> np.ndarray:
        """An upper bound on each column's operator norm (at least 1), the
        scale of its Lanczos tolerances."""
        scale = np.max(np.abs(self.diagonal), axis=1)
        scale += 2.0 * float(
            np.sum(np.abs(self.couplings) * np.sqrt(np.array(self.spec.cutoffs))[:, None])
        )
        return np.maximum(scale, 1.0)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    sector: str
    method: str
    vectors: list[Wavefunction] | None = None


def _padded_start(op: HamiltonianEngine, start: Wavefunction, column: int) -> np.ndarray:
    """``start``, a vector of the chain and parity sector of ``op``'s column
    ``column`` at cutoffs no larger than ``op``'s, zero-padded onto that
    sector in its real gauge."""
    idx, (spec, sector) = start.indexer, op.columns[column]
    if (idx.sector != _parity(sector)
            or idx.spec.with_cutoffs(spec.cutoffs) != spec
            or any(a > b for a, b in zip(idx.spec.cutoffs, spec.cutoffs))):
        raise ManyBodyError("start must be a vector of the same chain and sector "
                            "with cutoffs at most the spec's")
    # padding keeps every occupation row, so parity and the gauge phase of
    # each state stay, and the start is taken to the real gauge on its own
    # support
    inner = tuple(slice(d) for d in idx.shape)
    padded = np.zeros(op._basis.shape)
    padded[inner] = (start.data.reshape(idx.shape)
                     * op.phase.reshape(op._basis.shape)[inner].conj()).real
    return padded.reshape(-1)


def _vacuum_start(op: HamiltonianEngine) -> np.ndarray | None:
    """The sector part of the asymptotic vacuum V+ on each of ``op``'s
    columns, in column coordinates and the real gauge, or None where the
    truncated coherent states keep too little weight for a start to have a
    norm.

    V+ does not depend on the atomic frequencies, so every column of one
    sector label takes the same start.  Its factors are taken without the
    mass check of ``asymptotics.vacuum_factors``: a start needs no accuracy,
    so it never refuses a solve that a cold start would run.
    """
    from .asymptotics import truncated_factors  # asymptotics imports this module

    modes, spin, _ = truncated_factors(op.spec, +1)
    parts = {sec: (basis.product(modes, spin) * op.phase.conj()).real
             for sec, basis in op._bases.items()}
    start = op.fold(np.stack([parts[sec] for _, sec in op.columns]))
    return start if np.all(np.sum(start * start, axis=1) > 0.0) else None


def _column_bytes(dim: int, m: int) -> int:
    """Bytes one column of ``dim`` states holds in a solve for m pairs: its
    dense matrix at or below ``DENSE_LIMIT`` states, its Krylov basis above."""
    return 8 * dim * (dim if dim <= DENSE_LIMIT else basis_size(dim, m) + 1)


def _admit(spec: ManyBodySpec, m: int) -> None:
    """Refuse a solve for m pairs on ``spec`` whose column, charged its
    whole parity sector, would hold more than ``SOLVE_BYTES``."""
    need = _column_bytes(spec.dimension // 2, m)
    if need > SOLVE_BYTES:
        raise ManyBodyError(f"sector of {spec.dimension // 2} states, m = {m}: one solve "
                            f"would hold {need} bytes, more than SOLVE_BYTES = {SOLVE_BYTES}")


def sector_spectra(columns, m: int = 1, tol: float = 1e-11, with_vectors: bool = False,
                   starts=None, energy_tol=None) -> list[SpectrumResult]:
    """``lowest_spectrum`` of each (spec, sector) column, in column order.

    The columns share N, N_m, g and the cutoffs; sector and atomic
    frequencies may differ.  A sector is a parity sector, 'even' or 'odd',
    or the mirror-even half of one, ('even', +1) or ('odd', +1), which needs
    equal atomic frequencies and holds both sectors' ground states (see
    ``HamiltonianEngine``).  A call is refused, before any basis or engine
    is built, when one column would hold more than ``SOLVE_BYTES`` of Krylov
    basis, or of dense matrix at or below ``DENSE_LIMIT`` states; every
    column is charged its whole parity sector, a mirror-even half too, whose
    product still runs on the whole sector.  Runs of consecutive columns of
    one dimension are solved together, as stacks of at most ``STACK_BYTES``
    of the same per-column bytes, and a column's result is the same, bit
    for bit, whatever is stacked beside it; its dimension alone picks its
    route.
    Vectors come back on the parity sector's indexer either way.
    ``starts``, one parity-sector vector per column, warm-starts Lanczos
    columns from a vector of the same chain and sector at per-mode cutoffs
    no larger than the column's (the ground vector of a smaller solve),
    zero-padded to the column's cutoffs; the dense route ignores them.
    ``starts="vacuum"`` starts every Lanczos column from the sector part of
    the asymptotic vacuum V+ (``_vacuum_start``), built per stack and never
    for a dense one.
    Starts are refused for more than one pair: a start inside one symmetry
    class gives the levels of another too little weight to be found, and
    the residual gate cannot tell a level that was missed.
    ``energy_tol``, one absolute bound per column, lets a Lanczos column
    whose vectors serve only as warm starts be certified by the
    Kato-Temple bound on its energies (``krylov.lowest_eigenpairs``).
    """
    columns = _stack_columns(columns)
    if m < 1:
        raise ManyBodyError("m must be at least 1")
    if tol <= 0:
        raise ManyBodyError("tol must be positive")
    if starts is not None and m > 1:
        raise ManyBodyError(f"starts serve ground solves only, not m = {m}")
    vacuum = isinstance(starts, str)
    if vacuum and starts != "vacuum":
        raise ManyBodyError(f"starts must be 'vacuum' or one vector per column, got {starts!r}")
    if starts is not None and not vacuum and len(starts) != len(columns):
        raise ManyBodyError(f"{len(starts)} starts for {len(columns)} columns")
    spec = columns[0][0]
    _admit(spec, m)  # before any basis is built
    dims = {sec: _column_dimension(spec, sec) for sec in dict.fromkeys(sec for _, sec in columns)}
    if m > min(dims.values()):
        raise ManyBodyError(f"m = {m} exceeds the sector dimension {min(dims.values())}")
    stacks = []
    first = 0
    # a stack holds parity sectors or mirror-even halves, of one dimension
    for (_, dim), run in groupby((isinstance(sec, str), dims[sec]) for _, sec in columns):
        end = first + len(list(run))
        width = max(1, STACK_BYTES // _column_bytes(dim, m))
        stacks += [(lo, min(lo + width, end)) for lo in range(first, end, width)]
        first = end
    out = []
    for lo, hi in stacks:
        out += _stack_spectra(HamiltonianEngine(columns[lo:hi]), m, tol, with_vectors,
                              starts if starts is None or vacuum else starts[lo:hi],
                              None if energy_tol is None else energy_tol[lo:hi])
    return out


def _stack_spectra(op, m, tol, with_vectors, starts, energy_tol) -> list[SpectrumResult]:
    """The results of one stack of ``sector_spectra``, on its engine ``op``."""
    dim = op.dimension
    start = None
    if starts is not None and not isinstance(starts, str):
        start = op.fold(np.stack([_padded_start(op, st, i) for i, st in enumerate(starts)]))
    if dim <= DENSE_LIMIT:
        with solve_threads(dim):
            h = op.dense()
            vals, vecs = np.linalg.eigh(h)
            vals, vecs = vals[:, :m], vecs[:, :, :m]
            residuals = np.linalg.norm(h @ vecs - vecs * vals[:, None, :], axis=1)
        iterations, method = [0] * len(op.columns), "dense"
    else:
        if starts == "vacuum":
            start = _vacuum_start(op)
        res = lowest_eigenpairs(op.matvec, dim, m, tol=tol, scale=op.norm_bound(),
                                start=start, energy_tol=energy_tol)
        vals, vecs, residuals = res.eigenvalues, res.eigenvectors, res.residuals
        iterations, method = res.column_matvecs, "lanczos"
    if with_vectors:
        vecs = [op.unfold(vecs[:, :, j]) for j in range(m)]
    out = []
    for i in range(len(op.columns)):
        wfs = None
        if with_vectors:
            wfs = [Wavefunction(op.indexers[i], op.phase * v[i]) for v in vecs]
        out.append(SpectrumResult(vals[i], residuals[i], int(iterations[i]),
                                  op.columns[i][1], method, wfs))
    return out


def lowest_spectrum(spec: ManyBodySpec, sector: str = "full", m: int = 1,
                    tol: float = 1e-11, with_vectors: bool = False) -> SpectrumResult:
    """m lowest eigenpairs of H: by default of the full space, the merge of
    the two parity sectors, or of one sector, 'even' or 'odd'.

    The sector dimension alone picks the route: dense diagonalization at or
    below ``DENSE_LIMIT`` states, and Lanczos above it; either runs under
    ``krylov.solve_threads``.  A full-space spectrum is always the merge of
    the two sector solves, which sidesteps cross-sector quasi-degeneracy
    entirely; the two sectors go to ``sector_spectra`` as one stack, and
    the vectors stay sector wavefunctions, in merged order.  Only the dense
    route is guaranteed to return an exactly degenerate level as often as
    its multiplicity; Lanczos may return fewer copies.
    """
    if sector != "full":
        return sector_spectra([(spec, sector)], m, tol, with_vectors)[0]
    if m > spec.dimension:
        raise ManyBodyError(f"m = {m} exceeds the full-space dimension {spec.dimension}")
    even, odd = sector_spectra([(spec, s) for s in SECTORS],
                               min(m, spec.dimension // 2), tol, with_vectors)
    vals = np.concatenate([even.eigenvalues, odd.eigenvalues])
    order = np.argsort(vals, kind="stable")[:m]
    res = np.concatenate([even.residual_norms, odd.residual_norms])
    vecs = None
    if with_vectors:
        pool = even.vectors + odd.vectors
        vecs = [pool[i] for i in order]
    return SpectrumResult(vals[order], res[order], even.iterations + odd.iterations,
                          "full", f"{even.method}-merged", vecs)


@dataclass
class SplittingRecord:
    """One point of a splitting sweep; the unit of all scaling fits."""

    n_atoms: int
    n_modes: int
    g: float
    cutoffs: tuple[int, ...]
    e_even: float
    e_odd: float
    delta: float
    delta_over_omega_atom: float
    converged: bool
    below_floor: bool = False
    #: the splitting at the refined cutoffs that ``converged`` compared with
    #: delta, or None without refinement
    delta_refined: float | None = None


def _refined_cutoffs(cutoffs) -> tuple[int, ...]:
    return tuple(c + max(2, math.ceil(0.25 * c)) for c in cutoffs)


def ground_columns(spec: ManyBodySpec) -> list:
    """The (even, odd) columns whose ground states are ``spec``'s: the
    mirror-even halves of both parity sectors when the atomic frequencies
    are all equal, and the whole sectors otherwise."""
    clean = len(set(spec.omega_atoms)) == 1
    return [(spec, (sec, 1) if clean else sec) for sec in SECTORS]


def _omega_ref(spec: ManyBodySpec) -> float:
    """The atomic frequency scale of a spec's splitting floor."""
    return float(np.mean(np.abs(spec.omega_atoms))) or 1.0


def _energy_tol(spec: ManyBodySpec) -> float:
    """The Kato-Temple bound each base ground energy of ``spec`` is
    certified to in ``ground_splittings``: a tenth of the splitting floor."""
    return NUMERICAL_FLOOR * _omega_ref(spec) / 10


def _refined_energy_tol(spec: ManyBodySpec, delta: float, tol: float) -> float:
    """The Kato-Temple bound of each refined ground energy of ``spec``, whose
    base splitting is ``delta``, under the convergence test at ``tol``:
    ``REFINE_SHARE`` of that test's threshold tol x delta, and never below
    ``_energy_tol``, to which a splitting at or below the floor falls back."""
    if delta <= NUMERICAL_FLOOR * _omega_ref(spec):
        return _energy_tol(spec)
    return max(_energy_tol(spec), REFINE_SHARE * tol * delta)


def _splittings(results) -> list[float]:
    """|E0(even) - E0(odd)| of each consecutive (even, odd) pair of results."""
    e = [float(r.eigenvalues[0]) for r in results]
    return [abs(a - b) for a, b in zip(e[::2], e[1::2])]


def ground_splittings(specs, tol: float = 1e-3,
                      refine: bool = True) -> list[SplittingRecord]:
    """|E0(even) - E0(odd)| of each spec, in order, with a convergence flag.

    The specs differ in atomic frequencies only.  Their ``ground_columns``,
    spec by spec and even before odd, are one ``sector_spectra`` call whose
    Lanczos columns start from the sector parts of the asymptotic vacuum V+;
    ``refine`` solves them again at larger cutoffs, from the padded ground
    vectors, which the base solve builds only when a refined column is above
    ``DENSE_LIMIT``, since the dense route ignores starts.  A record is
    converged when refinement changes delta by at most ``tol`` relative, or
    leaves both splittings below the floor; never unrefined.  The vectors
    serve only as warm starts, so every Lanczos column may stop at a
    Kato-Temple bound on its energy as well as at the residual gate: a base
    energy at ``_energy_tol``, a tenth of the floor, and a refined one,
    which feeds only ``converged``, at ``_refined_energy_tol``,
    ``REFINE_SHARE`` of tol times the base delta.
    The flag's margin |delta - d2| - tol max(delta, d2) is then known to
    within the two splittings' error bars, twice each energy's bound; where
    it lies inside them, the point's refined pair is solved again from the
    base vectors at a quarter of the margin, so the flag is the one an
    exactly solved d2 gives.
    A refined column too large to solve is refused before the base solve.
    """
    columns = [c for s in specs for c in ground_columns(s)]
    warm = False
    if refine:
        bumped = [(s.with_cutoffs(_refined_cutoffs(s.cutoffs)), sec) for s, sec in columns]
        for s, _ in bumped:
            _admit(s, 1)
        warm = any(_column_dimension(bumped[0][0], sec) > DENSE_LIMIT
                   for sec in {sec for _, sec in bumped})
    base = sector_spectra(columns, 1, with_vectors=warm, starts="vacuum",
                          energy_tol=[_energy_tol(s) for s, _ in columns])
    e = [float(r.eigenvalues[0]) for r in base]
    deltas = _splittings(base)
    d2s = [None] * len(deltas)
    if refine:
        starts = [r.vectors[0] for r in base] if warm else None
        targets = [_refined_energy_tol(s, d, tol) for (s, _), d in zip(columns[::2], deltas)]
        d2s = _splittings(sector_spectra(bumped, 1, starts=starts,
                                         energy_tol=[t for t in targets for _ in SECTORS]))
        again = {}
        for i, ((spec, _), delta, d2, target) in enumerate(zip(columns[::2], deltas, d2s,
                                                               targets)):
            margin = abs(delta - d2) - tol * max(delta, d2)
            tighter = max(_energy_tol(spec), abs(margin) / 4)
            # a re-solve at a target no tighter would give the same bits
            if (abs(margin) <= 2 * (1 + tol) * (_energy_tol(spec) + target)
                    and tighter < target):
                again[i] = tighter
        if again:
            pick = [2 * i + j for i in again for j in range(len(SECTORS))]
            solved = sector_spectra([bumped[k] for k in pick], 1,
                                    starts=[starts[k] for k in pick] if warm else None,
                                    energy_tol=[t for t in again.values() for _ in SECTORS])
            for i, d2 in zip(again, _splittings(solved)):
                d2s[i] = d2
    records = []
    for (spec, _), e_even, e_odd, delta, d2 in zip(columns[::2], e[::2], e[1::2], deltas, d2s):
        omega_ref = _omega_ref(spec)
        floor = NUMERICAL_FLOOR * omega_ref
        converged = False
        if refine:
            larger = max(delta, d2)
            converged = larger < floor or abs(delta - d2) <= tol * larger
        records.append(SplittingRecord(
            n_atoms=spec.n_atoms, n_modes=spec.n_modes, g=spec.g, cutoffs=spec.cutoffs,
            e_even=e_even, e_odd=e_odd, delta=delta, delta_over_omega_atom=delta / omega_ref,
            converged=converged, below_floor=delta < floor, delta_refined=d2))
    return records


def parallel_map(fn, items, jobs: int = 1) -> list:
    """[fn(x) for x in items], in the order of items, on up to ``jobs``
    forked worker processes, no more than the items or the usable cores.

    ``fn``, the items and the results are pickled, so ``fn`` is a
    module-level function or a ``functools.partial`` of one; a worker's
    exception is raised here.  Each worker caps its OpenBLAS at the usable
    cores divided by the workers, and a solve in it gets the smaller of that
    and its own cap (``krylov.solve_threads``).  One worker, or a platform
    other than Linux, maps serially in this process: a spawned worker would
    pay about 0.12 s to import numpy, and fork was measured on Linux only.
    """
    items = list(items)
    workers = min(jobs, len(items), usable_cores())
    if workers <= 1 or sys.platform != "linux":
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=cap_blas_threads,
                             initargs=(usable_cores() // workers,)) as ex:
        return list(ex.map(fn, items))

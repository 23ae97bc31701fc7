"""Desk-scale simulator for a chain of inductively coupled Josephson
two-level atoms in a multimode transmission-line resonator: circuit-constant
derivation, double-well atom solver, quadratic-block stability analysis,
matrix-free exact diagonalization with parity sectoring, ultrastrong-coupling
closed forms, and disorder ensembles."""

from .circuit import (
    DerivedConstants,
    RawCircuit,
    coupling_estimate,
    derive_constants,
    finite_size_mu,
    mode_frequency,
    vacuum_rabi,
)
from .fluxonium import (
    FluxoniumLevels,
    FluxoniumSpec,
    solve_levels,
    two_level_reduction,
)
from .hopfield import (
    HopfieldBlock,
    PolaritonResult,
    branch_sweep,
    build_matrix,
    critical_coupling,
    determinant,
    polariton_frequencies,
)
from .manybody import (
    BasisIndexer,
    ManyBodySpec,
    SplittingRecord,
    Wavefunction,
    choose_cutoffs,
    ground_splittings,
    lowest_spectrum,
)
from .asymptotics import (
    analytic_splitting_general,
    analytic_splitting_n2,
    asymptotic_vacuum,
    beta_exponent,
    coherent_amplitudes,
    doublet_overlap,
    minimize_pseudospin_config,
    subspace_overlap,
)
from .disorder import (
    DisorderEnsembleSpec,
    ensemble_splitting,
    protection_check,
    sample_frequencies,
)

__version__ = "0.1.0"

"""Cavity QED toolkit for a two-level emitter in a single-mode cavity.

Builds the full light-matter coupling Hamiltonian and its rotating-wave
approximation over a truncated Fock product basis and solves them with
in-house structured eigensolvers: Sturm-count bisection and inverse
iteration on the two parity chains of the full model, closed-form 2x2
excitation blocks for the RWA.  A dense Jacobi solver remains for general
symmetric matrices and as a cross-check.  From the eigensystems it derives
polariton spectra, photon-number and atomic-energy observables, vacuum Rabi
splittings, stick absorption spectra, coupling-regime labels, and
figure-ready sweep datasets, tracking states across couplings by their
symmetry labels.
"""

from .errors import (
    BasisMismatch,
    BlockLeak,
    NonConvergence,
    SchemaMismatch,
    UsageError,
    ValidationError,
)
from .model import (
    Atom,
    FockBasis,
    ModelParams,
    Parity,
    bare_energies,
    build_basis,
    build_rabi_hamiltonian,
    build_rwa_hamiltonian,
    parity_blocks,
)
from .eigensolve import EigenSystem, diagonalize
from .observables import (
    EnergyPartition,
    atomic_energy,
    dipole_element,
    energy_partition,
    photon_number,
)
from .spectra import (
    Branch,
    Regime,
    RwaLevel,
    SpectralLine,
    absorption_lines,
    classify_regime,
    regime_from_label,
    rwa_analytic_levels,
    rwa_ground_energy,
    rwa_splitting,
    solve_rabi,
    solve_rwa,
    transition_frequencies,
)
from .experiments import (
    ConvergenceRow,
    Dataset,
    SweepGrid,
    SweepRow,
    absorption_dataset,
    convergence_study,
    run_sweep,
    sweep_datasets,
)
from .io import emit_dataset, emit_plot_script, parse_config_file

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BasisMismatch",
    "BlockLeak",
    "Branch",
    "ConvergenceRow",
    "Dataset",
    "EigenSystem",
    "EnergyPartition",
    "FockBasis",
    "ModelParams",
    "NonConvergence",
    "Parity",
    "Regime",
    "RwaLevel",
    "SchemaMismatch",
    "SpectralLine",
    "SweepGrid",
    "SweepRow",
    "UsageError",
    "ValidationError",
    "absorption_dataset",
    "absorption_lines",
    "atomic_energy",
    "bare_energies",
    "build_basis",
    "build_rabi_hamiltonian",
    "build_rwa_hamiltonian",
    "classify_regime",
    "convergence_study",
    "diagonalize",
    "dipole_element",
    "emit_dataset",
    "emit_plot_script",
    "energy_partition",
    "parity_blocks",
    "parse_config_file",
    "photon_number",
    "regime_from_label",
    "run_sweep",
    "rwa_analytic_levels",
    "rwa_ground_energy",
    "rwa_splitting",
    "solve_rabi",
    "solve_rwa",
    "sweep_datasets",
    "transition_frequencies",
    "__version__",
]

"""Cavity QED toolkit for a two-level emitter in a single-mode cavity.

Builds the full light-matter coupling Hamiltonian and its rotating-wave
approximation over a truncated Fock product basis and solves them with
in-house structured eigensolvers: Sturm-count bisection and inverse
iteration on the two parity chains of the full model, closed-form 2x2
excitation blocks for the RWA.  From the eigensystems it derives
polariton spectra, photon-number and atomic-energy observables, vacuum Rabi
splittings, stick absorption spectra, coupling-regime labels, and
figure-ready sweep datasets, tracking states across couplings by their
symmetry labels.
"""

from .errors import (
    BasisMismatch,
    NonConvergence,
    SchemaMismatch,
    UsageError,
    ValidationError,
)
from .model import (
    FockBasis,
    ModelParams,
    Parity,
    bare_energies,
    build_basis,
    build_rabi_hamiltonian,
    build_rwa_hamiltonian,
)
from .eigensolve import EigenSystem
from .observables import (
    EnergyPartition,
    atomic_energy,
    dipole_element,
    energy_partition,
    photon_number,
)
from .spectra import (
    Regime,
    SpectralLine,
    absorption_lines,
    classify_regime,
    rwa_analytic_levels,
    rwa_ground_energy,
    solve_rabi,
    solve_rwa,
)
from .experiments import (
    ConvergenceRow,
    Dataset,
    SweepGrid,
    SweepRow,
    absorption_dataset,
    convergence_study,
    run_sweep,
    spectrum_dataset,
    sweep_datasets,
)
from .io import emit_dataset, emit_plot_script, parse_config_file

__version__ = "0.1.0"

__all__ = [
    "BasisMismatch",
    "ConvergenceRow",
    "Dataset",
    "EigenSystem",
    "EnergyPartition",
    "FockBasis",
    "ModelParams",
    "NonConvergence",
    "Parity",
    "Regime",
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
    "dipole_element",
    "emit_dataset",
    "emit_plot_script",
    "energy_partition",
    "parse_config_file",
    "photon_number",
    "run_sweep",
    "rwa_analytic_levels",
    "rwa_ground_energy",
    "solve_rabi",
    "solve_rwa",
    "spectrum_dataset",
    "sweep_datasets",
    "__version__",
]

"""Coupling sweeps, eigenstate tracking, truncation convergence, and
figure-ready datasets.

``run_sweep`` solves both Hamiltonians on a uniform coupling grid with the
structured solvers and reports, per grid point, the lowest eigenvalues,
photon numbers, atomic energies, transition frequencies, the two absorption
peak positions, and their splitting.  Each per-state quantity appears under
two labelings: sorted (ascending energy at that grid point) and tracked
(states followed across the grid by their symmetry label, so curves keep
their identity through crossings).  Tracked curve c starts as sorted index c
at the first grid point.  The label is (parity, rank within parity) for the
full model, whose parity chains have simple spectra for lam > 0, and
(excitation block, branch) for the RWA; ``track_states`` follows states by
eigenvector overlap instead and gives the same curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousTracking, ValidationError
from .eigensolve import DEFAULT_TOL, EigenSystem, solve_rabi, solve_rabi_grid
from .model import ModelParams, Parity, build_basis
from .observables import NORM_TOL
from .spectra import (
    DEFAULT_LINE_THRESHOLD,
    Regime,
    absorption_lines,
    classify_regime,
    solve_rwa,
)

#: Minimum eigenvector overlap for an unambiguous tracking step.
OVERLAP_MIN = 2.0**-0.5

#: Rounding slack on the overlap threshold.  A degenerate pair that
#: reorganizes into equal mixtures between grid points (e.g. the resonant
#: polariton fork at lambda = 0) yields a best overlap of exactly 1/sqrt(2),
#: which must not raise; float rounding can land it one ulp below.
_OVERLAP_EPS = 1e-9


@dataclass(frozen=True)
class SweepGrid:
    """Uniform inclusive coupling grid with shared base parameters.

    The ``lam`` field of ``params_base`` is ignored; each grid point
    substitutes its own coupling value.
    """

    lambda_min: float = 0.0
    lambda_max: float = 1.2
    steps: int = 121
    params_base: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self) -> None:
        if not 0 <= self.lambda_min < self.lambda_max:
            raise ValidationError(
                "need 0 <= lambda_min < lambda_max, got "
                f"{self.lambda_min!r}..{self.lambda_max!r}"
            )
        if self.steps != int(self.steps) or self.steps < 2:
            raise ValidationError(f"steps must be an integer >= 2, got {self.steps!r}")

    def values(self) -> np.ndarray:
        """The grid points, including both endpoints."""
        return np.linspace(self.lambda_min, self.lambda_max, int(self.steps))


@dataclass(frozen=True)
class SweepRow:
    """All per-grid-point quantities; arrays hold the lowest K states.

    ``nu_*`` are the transition frequencies from the sorted ground state to
    sorted states 1..K.  ``nu_peaks_*`` are the positions of the two
    absorption peaks: for the full Hamiltonian the transitions from the
    ground eigenstate to the two lowest odd-parity states (the only
    dipole-allowed ones), for the RWA the transitions from the bare |g,0>
    eigenstate to the one-excitation polariton pair.  ``delta_nu_*`` is the
    gap between the two peaks.  ``*_tracked`` arrays are indexed by curve
    identity instead of by energy order.
    """

    lam: float
    regime: Regime
    energies_full: np.ndarray
    energies_rwa: np.ndarray
    photon_numbers_full: np.ndarray
    photon_numbers_rwa: np.ndarray
    atomic_energies_full: np.ndarray
    atomic_energies_rwa: np.ndarray
    nu_full: np.ndarray
    nu_rwa: np.ndarray
    nu_peaks_full: np.ndarray
    nu_peaks_rwa: np.ndarray
    delta_nu_full: float
    delta_nu_rwa: float
    energies_full_tracked: np.ndarray
    energies_rwa_tracked: np.ndarray
    photon_numbers_full_tracked: np.ndarray
    photon_numbers_rwa_tracked: np.ndarray
    atomic_energies_full_tracked: np.ndarray
    atomic_energies_rwa_tracked: np.ndarray


def track_states(previous: EigenSystem, current: EigenSystem) -> np.ndarray:
    """Match current eigenstates to previous ones by eigenvector overlap.

    Returns an index permutation ``m`` with ``m[j]`` the previous-state index
    that current state j continues: each current eigenvector is assigned
    greedily (in index order) to the unassigned previous eigenvector of equal
    parity tag maximizing ``|<v_prev, v_curr>|``.  Raises AmbiguousTracking
    when the best available overlap falls below 1/sqrt(2), which signals a
    grid too coarse to follow the curves; an overlap of exactly 1/sqrt(2)
    (a degenerate pair forking into equal mixtures) is still assigned,
    deterministically.
    """
    if previous.dim != current.dim:
        raise ValidationError(
            f"eigensystem dimensions differ: {previous.dim} vs {current.dim}"
        )
    dim = current.dim
    overlap = np.abs(previous.eigenvectors.T @ current.eigenvectors)
    if previous.parities is not None and current.parities is not None:
        prev_rank = np.array([p.value for p in previous.parities])
        cur_rank = np.array([p.value for p in current.parities])
        allowed = prev_rank[:, None] == cur_rank[None, :]
        overlap = np.where(allowed, overlap, -1.0)
    taken = np.zeros(dim, dtype=bool)
    mapping = np.empty(dim, dtype=int)
    for j in range(dim):
        column = np.where(taken, -1.0, overlap[:, j])
        i = int(np.argmax(column))
        best = float(column[i])
        if best < OVERLAP_MIN - _OVERLAP_EPS:
            raise AmbiguousTracking(
                f"best overlap {best:.3f} for state {j} is below "
                f"{OVERLAP_MIN:.3f}; refine the coupling grid",
                overlap=best,
            )
        mapping[j] = i
        taken[i] = True
    return mapping


def _observable_arrays(eig: EigenSystem, params: ModelParams):
    """Photon number and atomic energy of every eigenvector column.

    The same quantities as ``photon_number`` and ``atomic_energy``, with the
    same unit-norm check, for all columns at once.
    """
    weights = eig.eigenvectors**2
    norms = np.sqrt(np.sum(weights, axis=0))
    not_unit = np.abs(norms - 1.0) > NORM_TOL
    if not_unit.any():
        raise ValidationError(f"state must have unit norm, got {norms[not_unit][0]!r}")
    nbar = (np.arange(eig.dim) // 2) @ weights
    eatom = params.omega1 + params.omega21 * np.sum(weights[1::2], axis=0)
    return nbar, eatom


def _curve_positions(labels: np.ndarray) -> np.ndarray:
    """Invert a label array: position[c] = sorted index carrying label c."""
    positions = np.empty(labels.size, dtype=int)
    positions[labels] = np.arange(labels.size)
    return positions


def _full_peaks(eig: EigenSystem) -> np.ndarray:
    """Absorption peak positions of the full Hamiltonian.

    Transitions from the ground eigenstate to the two lowest odd-parity
    eigenstates; parity selection makes these the lowest dipole-allowed
    lines regardless of how many even levels cross below them.
    """
    odd = [k for k, p in enumerate(eig.parities) if p is Parity.ODD][:2]
    return eig.eigenvalues[odd] - eig.eigenvalues[0]


def _rwa_peaks(eig: EigenSystem) -> np.ndarray:
    """Absorption peak positions of the RWA Hamiltonian.

    The transitions from the zero-excitation |g,0> eigenstate (label 0) to
    the minus and plus one-excitation polaritons (labels 1 and 2); past
    lam = omega_c the lower one is negative (the polariton has sunk below
    |g,0>), reproducing the RWA pathology.
    """
    ground, minus, plus = _curve_positions(eig.labels)[:3]
    return eig.eigenvalues[[minus, plus]] - eig.eigenvalues[ground]


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


def run_sweep(
    grid: SweepGrid,
    n_max: int = 14,
    k_states: int = 7,
    *,
    tol: float = DEFAULT_TOL,
) -> list[SweepRow]:
    """Solve both Hamiltonians across the grid and tabulate results.

    Needs k_states + 1 eigenstates (ground plus K transitions), so the basis
    dimension 2(n_max+1) must be at least k_states + 1.  NonConvergence from
    the eigensolver propagates with the offending coupling value attached.
    Each point's eigensystems are dropped once its row is built.
    """
    if k_states != int(k_states) or k_states < 1:
        raise ValidationError(f"k_states must be an integer >= 1, got {k_states!r}")
    k_states = int(k_states)
    if n_max < k_states:
        raise ValidationError(
            f"n_max={n_max} must be at least k_states={k_states} so the "
            "tracked states are resolved"
        )
    basis = build_basis(n_max)
    lams = grid.values()
    rows: list[SweepRow] = []
    curves_full = curves_rwa = None
    for lam, eig_full in zip(
        lams, solve_rabi_grid(grid.params_base, lams, basis, tol=tol)
    ):
        params = grid.params_base.with_lambda(float(lam))
        eig_rwa = solve_rwa(params, basis, tol=tol)
        if curves_full is None:
            curves_full = eig_full.labels[:k_states]
            curves_rwa = eig_rwa.labels[:k_states]
        rows.append(
            _make_row(params, eig_full, eig_rwa, curves_full, curves_rwa, k_states)
        )
    return rows


def _make_row(
    params: ModelParams,
    eig_full: EigenSystem,
    eig_rwa: EigenSystem,
    curves_full: np.ndarray,
    curves_rwa: np.ndarray,
    k: int,
) -> SweepRow:
    nbar_full, eatom_full = _observable_arrays(eig_full, params)
    nbar_rwa, eatom_rwa = _observable_arrays(eig_rwa, params)
    pos_full = _curve_positions(eig_full.labels)[curves_full]
    pos_rwa = _curve_positions(eig_rwa.labels)[curves_rwa]
    nu_full = eig_full.eigenvalues[1 : k + 1] - eig_full.eigenvalues[0]
    nu_rwa = eig_rwa.eigenvalues[1 : k + 1] - eig_rwa.eigenvalues[0]
    peaks_full = _full_peaks(eig_full)
    peaks_rwa = _rwa_peaks(eig_rwa)
    return SweepRow(
        lam=params.lam,
        regime=classify_regime(params.lam, params.omega_c),
        energies_full=_frozen(eig_full.eigenvalues[:k]),
        energies_rwa=_frozen(eig_rwa.eigenvalues[:k]),
        photon_numbers_full=_frozen(nbar_full[:k]),
        photon_numbers_rwa=_frozen(nbar_rwa[:k]),
        atomic_energies_full=_frozen(eatom_full[:k]),
        atomic_energies_rwa=_frozen(eatom_rwa[:k]),
        nu_full=_frozen(nu_full),
        nu_rwa=_frozen(nu_rwa),
        nu_peaks_full=_frozen(peaks_full),
        nu_peaks_rwa=_frozen(peaks_rwa),
        delta_nu_full=float(peaks_full[1] - peaks_full[0]),
        delta_nu_rwa=float(peaks_rwa[1] - peaks_rwa[0]),
        energies_full_tracked=_frozen(eig_full.eigenvalues[pos_full]),
        energies_rwa_tracked=_frozen(eig_rwa.eigenvalues[pos_rwa]),
        photon_numbers_full_tracked=_frozen(nbar_full[pos_full]),
        photon_numbers_rwa_tracked=_frozen(nbar_rwa[pos_rwa]),
        atomic_energies_full_tracked=_frozen(eatom_full[pos_full]),
        atomic_energies_rwa_tracked=_frozen(eatom_rwa[pos_rwa]),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """Lowest-K energies at one truncation, with deviation from the largest
    truncation in the study."""

    n_max: int
    energies: np.ndarray
    max_abs_dev: float


def convergence_study(
    params: ModelParams,
    n_max_list,
    k_states: int = 7,
    *,
    tol: float = DEFAULT_TOL,
) -> list[ConvergenceRow]:
    """Lowest-K energies of the full Hamiltonian at each truncation.

    ``n_max_list`` must be strictly ascending; every truncation must retain
    at least k_states basis states.  The deviation column compares against
    the largest truncation in the list.
    """
    n_maxes = [int(n) for n in n_max_list]
    if not n_maxes:
        raise ValidationError("n_max_list must be non-empty")
    if any(a >= b for a, b in zip(n_maxes, n_maxes[1:])):
        raise ValidationError(f"n_max_list must be strictly ascending, got {n_maxes}")
    if k_states != int(k_states) or k_states < 1:
        raise ValidationError(f"k_states must be an integer >= 1, got {k_states!r}")
    k_states = int(k_states)
    if 2 * (n_maxes[0] + 1) < k_states:
        raise ValidationError(
            f"smallest truncation n_max={n_maxes[0]} retains fewer than "
            f"k_states={k_states} basis states"
        )
    energy_table = []
    for n_max in n_maxes:
        eig = solve_rabi(params, build_basis(n_max), tol=tol)
        energy_table.append(eig.eigenvalues[:k_states].copy())
    reference = energy_table[-1]
    return [
        ConvergenceRow(
            n_max=n_max,
            energies=_frozen(energies),
            max_abs_dev=float(np.max(np.abs(energies - reference))),
        )
        for n_max, energies in zip(n_maxes, energy_table)
    ]


@dataclass(frozen=True)
class Dataset:
    """A named table: column names plus rows of plain values."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _indexed(prefix: str, k: int, start: int = 0) -> list[str]:
    return [f"{prefix}_{i}" for i in range(start, start + k)]


def sweep_datasets(
    grid: SweepGrid,
    n_max: int = 14,
    k_states: int = 7,
    *,
    tol: float = DEFAULT_TOL,
) -> dict[str, Dataset]:
    """The four sweep-based datasets from one grid run.

    fig2: lowest-K energies of both Hamiltonians vs coupling;
    fig3: transition frequencies and the splitting of the lowest pair;
    fig4_left / fig4_right: photon number / atomic energy per state.
    """
    rows = run_sweep(grid, n_max, k_states, tol=tol)
    k = k_states

    fig2_cols = (
        ["lambda"]
        + _indexed("e_full", k)
        + _indexed("e_rwa", k)
        + _indexed("e_full_tracked", k)
        + _indexed("e_rwa_tracked", k)
        + ["regime"]
    )
    fig2_rows = [
        (
            row.lam,
            *row.energies_full,
            *row.energies_rwa,
            *row.energies_full_tracked,
            *row.energies_rwa_tracked,
            row.regime,
        )
        for row in rows
    ]

    fig3_cols = (
        ["lambda"]
        + _indexed("nu_full", k, start=1)
        + _indexed("nu_rwa", k, start=1)
        + ["peak_full_1", "peak_full_2", "peak_rwa_1", "peak_rwa_2"]
        + ["delta_nu_full", "delta_nu_rwa"]
    )
    fig3_rows = [
        (
            row.lam,
            *row.nu_full,
            *row.nu_rwa,
            *row.nu_peaks_full,
            *row.nu_peaks_rwa,
            row.delta_nu_full,
            row.delta_nu_rwa,
        )
        for row in rows
    ]

    fig4_left_cols = (
        ["lambda"]
        + _indexed("nbar_full", k)
        + _indexed("nbar_rwa", k)
        + _indexed("nbar_full_tracked", k)
        + _indexed("nbar_rwa_tracked", k)
    )
    fig4_left_rows = [
        (
            row.lam,
            *row.photon_numbers_full,
            *row.photon_numbers_rwa,
            *row.photon_numbers_full_tracked,
            *row.photon_numbers_rwa_tracked,
        )
        for row in rows
    ]

    fig4_right_cols = (
        ["lambda"]
        + _indexed("eatom_full", k)
        + _indexed("eatom_rwa", k)
        + _indexed("eatom_full_tracked", k)
        + _indexed("eatom_rwa_tracked", k)
    )
    fig4_right_rows = [
        (
            row.lam,
            *row.atomic_energies_full,
            *row.atomic_energies_rwa,
            *row.atomic_energies_full_tracked,
            *row.atomic_energies_rwa_tracked,
        )
        for row in rows
    ]

    def _dataset(name, cols, data_rows):
        return Dataset(name=name, columns=tuple(cols), rows=tuple(map(tuple, data_rows)))

    return {
        "fig2": _dataset("fig2", fig2_cols, fig2_rows),
        "fig3": _dataset("fig3", fig3_cols, fig3_rows),
        "fig4_left": _dataset("fig4_left", fig4_left_cols, fig4_left_rows),
        "fig4_right": _dataset("fig4_right", fig4_right_cols, fig4_right_rows),
    }


def absorption_dataset(
    params: ModelParams,
    n_max: int = 14,
    *,
    threshold: float = DEFAULT_LINE_THRESHOLD,
    hermitian: bool = False,
    tol: float = DEFAULT_TOL,
) -> Dataset:
    """Absorption sticks of both Hamiltonians at one coupling (fig5)."""
    basis = build_basis(n_max)
    columns = (
        "model",
        "from_index",
        "to_index",
        "frequency",
        "intensity",
        "raw_intensity",
    )
    rows = []
    for model_name, solve in (("full", solve_rabi), ("rwa", solve_rwa)):
        eig = solve(params, basis, tol=tol)
        for line in absorption_lines(eig, basis, threshold, hermitian=hermitian):
            rows.append(
                (
                    model_name,
                    line.from_index,
                    line.to_index,
                    line.frequency,
                    line.intensity,
                    line.raw_intensity,
                )
            )
    return Dataset(name="fig5", columns=columns, rows=tuple(rows))


def figure_datasets(
    grid: SweepGrid,
    n_max: int = 14,
    k_states: int = 7,
    *,
    fig5_lambda: float = 0.5,
    threshold: float = DEFAULT_LINE_THRESHOLD,
    hermitian: bool = False,
    tol: float = DEFAULT_TOL,
) -> dict[str, Dataset]:
    """All five figure-ready datasets: the sweep tables plus the absorption
    sticks at ``fig5_lambda``."""
    datasets = sweep_datasets(grid, n_max, k_states, tol=tol)
    datasets["fig5"] = absorption_dataset(
        grid.params_base.with_lambda(fig5_lambda),
        n_max,
        threshold=threshold,
        hermitian=hermitian,
        tol=tol,
    )
    return datasets

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
(excitation block, branch) for the RWA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
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


_MODELS = ("full", "rwa")

#: Field-name suffixes of the per-state quantities: sorted and tracked.
_LABELINGS = ("", "_tracked")

#: Sweep-dataset columns: (dataset, column stem, SweepRow field stem,
#: labelings, first index).  For each labeling and then each model, the
#: dataset gets one column ``{stem}_{model}{labeling}_{i}`` per entry of
#: field ``{field}_{model}{labeling}``, with i counting from the first
#: index; a scalar field (first index None) gives the single column
#: ``{stem}_{model}{labeling}``.  Every dataset starts with ``lambda``, and
#: fig2 ends with ``regime``.
_COLUMNS = (
    ("fig2", "e", "energies", _LABELINGS, 0),
    ("fig3", "nu", "nu", ("",), 1),
    ("fig3", "peak", "nu_peaks", ("",), 1),
    ("fig3", "delta_nu", "delta_nu", ("",), None),
    ("fig4_left", "nbar", "photon_numbers", _LABELINGS, 0),
    ("fig4_right", "eatom", "atomic_energies", _LABELINGS, 0),
)


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
    fields = {}
    for model, eig, curves, peaks in (
        ("full", eig_full, curves_full, _full_peaks(eig_full)),
        ("rwa", eig_rwa, curves_rwa, _rwa_peaks(eig_rwa)),
    ):
        nbar, eatom = _observable_arrays(eig, params)
        per_state = {
            "energies": eig.eigenvalues,
            "photon_numbers": nbar,
            "atomic_energies": eatom,
        }
        pos = _curve_positions(eig.labels)[curves]
        for field, values in per_state.items():
            for labeling, index in zip(_LABELINGS, (slice(k), pos)):
                fields[f"{field}_{model}{labeling}"] = _frozen(values[index])
        fields[f"nu_{model}"] = _frozen(eig.eigenvalues[1 : k + 1] - eig.eigenvalues[0])
        fields[f"nu_peaks_{model}"] = _frozen(peaks)
        fields[f"delta_nu_{model}"] = float(peaks[1] - peaks[0])
    return SweepRow(
        lam=params.lam, regime=classify_regime(params.lam, params.omega_c), **fields
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
    specs: dict[str, list] = {}
    for name, stem, field, labelings, first in _COLUMNS:
        specs.setdefault(name, []).extend(
            (f"{stem}_{model}{labeling}", f"{field}_{model}{labeling}", first)
            for labeling in labelings
            for model in _MODELS
        )
    specs["fig2"].append(("regime", "regime", None))
    datasets = {}
    for name, spec in specs.items():
        columns = ["lambda"]
        for stem, field, first in spec:
            if first is None:
                columns.append(stem)
            else:
                size = len(getattr(rows[0], field))
                columns += [f"{stem}_{i}" for i in range(first, first + size)]
        table = tuple((row.lam, *_cells(row, spec)) for row in rows)
        datasets[name] = Dataset(name=name, columns=tuple(columns), rows=table)
    return datasets


def _cells(row: SweepRow, spec):
    """The values of ``row`` under ``spec``'s columns, in column order."""
    for _, field, first in spec:
        value = getattr(row, field)
        if first is None:
            yield value
        else:
            yield from value


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

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
(excitation block, branch) for the RWA.  ``spectrum_dataset`` reads the
same chains at one coupling; ``absorption_dataset`` needs every eigenpair,
so it reads the whole eigensystems of ``solve_rabi`` and ``solve_rwa``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ValidationError
from .eigensolve import DEFAULT_TOL, _check_residuals, _check_tol
from .model import ModelParams, Parity, _check_n_max, build_basis
from .observables import _observable_arrays
from .spectra import (
    Regime,
    _rabi_chunks,
    _rabi_ladder,
    _rwa_chains,
    absorption_lines,
    classify_regime,
    solve_rabi,
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
        if not 0 <= self.lambda_min < self.lambda_max < math.inf:
            raise ValidationError(
                "need 0 <= lambda_min < lambda_max < inf, got "
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


def _curve_positions(labels: np.ndarray) -> np.ndarray:
    """Invert a label array: position[c] = index carrying label c."""
    positions = np.empty(labels.size, dtype=int)
    positions[labels] = np.arange(labels.size)
    return positions


def _model_columns(model, chains, params, curves, k):
    """One model's SweepRow fields over a chunk of grid points, as arrays
    with one row per point.

    Columns are sorted per point by ``chains.order``; the tracked
    curves are the labels of the lowest k at the grid's first point, which
    the first chunk records in ``curves``.  The full model's peaks are its
    two lowest odd-parity levels, the lowest of the odd chain, which parity
    selection makes the lowest dipole-allowed lines.  The RWA's are the
    one-excitation polaritons (labels 1 and 2) seen from |g,0> (label 0);
    past lam = omega_c the lower one is negative, the RWA pathology.
    Photon numbers and atomic energies come straight from the chain
    vectors, with the bits the whole eigenvectors give (see
    ``observables``).
    """
    points = len(chains.values)
    values = chains.values.reshape(points, -1)
    order = chains.order
    point = np.arange(points)[:, None]
    energies = values[point, order]
    labels = chains.labels.ravel()
    position = _curve_positions(labels)
    tracked = position[curves.setdefault(model, labels[order[0, :k]])]
    picked = np.concatenate([order[:, :k], np.broadcast_to(tracked, (points, k))], axis=1)
    nbar, eatom = _observable_arrays(chains.vectors, params, chains.rows.T[:, None, :, None])
    if model == "full":
        peaks = chains.values[:, 1, :2] - energies[:, :1]
    else:
        peaks = values[:, position[1:3]] - values[:, position[:1]]
    fields = {
        f"nu_{model}": energies[:, 1 : k + 1] - energies[:, :1],
        f"nu_peaks_{model}": peaks,
        f"delta_nu_{model}": peaks[:, 1] - peaks[:, 0],
    }
    for field, array in (
        ("energies", values),
        ("photon_numbers", nbar),
        ("atomic_energies", eatom),
    ):
        array = array.reshape(points, -1)[point, picked]
        fields[f"{field}_{model}"] = array[:, :k]
        fields[f"{field}_{model}_tracked"] = array[:, k:]
    return fields


def _check_k_states(k_states, least: int = 1) -> int:
    if k_states != int(k_states) or k_states < least:
        raise ValidationError(f"k_states must be an integer >= {least}, got {k_states!r}")
    return int(k_states)


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _sweep_tables(
    grid: SweepGrid, n_max: int, k_states: int, tol: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The grid's couplings and one read-only table per SweepRow field,
    with one row per grid point (see ``run_sweep``)."""
    k_states = _check_k_states(k_states)
    if n_max < k_states:
        raise ValidationError(
            f"n_max={n_max} must be at least k_states={k_states} so the "
            "tracked states are resolved"
        )
    _check_tol(tol)
    basis = build_basis(n_max)
    params = grid.params_base
    lams = grid.values()
    levels = k_states + 1
    tables, curves = {}, {}
    for chunk, full in _rabi_chunks(params, lams, basis, levels, tol):
        rwa = _rwa_chains(params, lams[chunk], basis, tol)
        _check_residuals(lams[chunk], full, rwa)
        for model, chains in (("full", full), ("rwa", rwa)):
            fields = _model_columns(model, chains, params, curves, k_states)
            for name, values in fields.items():
                table = tables.setdefault(name, np.empty((lams.size, *values.shape[1:])))
                table[chunk] = values
    for table in tables.values():
        table.setflags(write=False)
    return lams, tables


def run_sweep(
    grid: SweepGrid,
    n_max: int = 14,
    k_states: int = 7,
    *,
    tol: float = DEFAULT_TOL,
) -> list[SweepRow]:
    """Solve both Hamiltonians across the grid and tabulate results.

    Needs k_states + 1 levels of each parity chain (ground plus K
    transitions), so each chain's n_max + 1 levels must number at least
    k_states + 1: n_max >= k_states.  NonConvergence from
    the eigensolver propagates with the first failing coupling in grid
    order attached.

    The grid is solved in chunks of consecutive points, each in array passes
    over the whole chunk, into one table per field; each row's arrays are
    read-only views of those tables.  Of the full Hamiltonian only the
    lowest k_states + 1 levels of each parity chain are solved; they hold
    every level a row reads.  A level of chain rank r > k_states sorts
    after its r lower chain-mates, whose energies are distinct for lam > 0;
    at lam = 0 a tie can put one mate after it, but then the lowest level
    of the other chain, below every level but the lowest of either chain,
    sorts before it.
    """
    lams, tables = _sweep_tables(grid, n_max, k_states, tol)
    cells = {
        name: table.tolist() if table.ndim == 1 else table for name, table in tables.items()
    }
    return [
        SweepRow(
            lam=lam,
            regime=classify_regime(lam, grid.params_base.omega_c),
            **{name: values[i] for name, values in cells.items()},
        )
        for i, lam in enumerate(lams.tolist())
    ]


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

    ``n_max_list`` must hold non-negative integers, strictly ascending;
    every truncation must retain at least k_states basis states.  The
    deviation column compares against the largest truncation in the list.

    All rungs are solved at once, as the points of the one chain solve
    that sweeps and single-coupling solves use (``spectra._rabi_pairs``,
    through ``spectra._rabi_ladder``), for only the lowest k_states levels
    of each parity chain (fewer if the chain is shorter), which hold the
    rung's lowest k_states energies.  The energies have the bits of
    ``solve_rabi(...).eigenvalues[:k_states]`` at each rung.  The residual
    check covers exactly those levels: NonConvergence is raised at the
    first rung, in ascending order, where the residual of one of them
    exceeds ``tol * ||H||_F``.
    """
    n_maxes = [_check_n_max(n) for n in n_max_list]
    if not n_maxes:
        raise ValidationError("n_max_list must be non-empty")
    if any(a >= b for a, b in zip(n_maxes, n_maxes[1:])):
        raise ValidationError(f"n_max_list must be strictly ascending, got {n_maxes}")
    k_states = _check_k_states(k_states)
    if 2 * (n_maxes[0] + 1) < k_states:
        raise ValidationError(
            f"smallest truncation n_max={n_maxes[0]} retains fewer than "
            f"k_states={k_states} basis states"
        )
    energy_table = _rabi_ladder(params, n_maxes, k_states, tol)
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

    Each dataset's columns are the tables of ``run_sweep``'s fields side by
    side in ``_COLUMNS`` order, turned into plain floats in one pass; the
    cells are those of ``run_sweep``'s rows, bit for bit.
    """
    lams, tables = _sweep_tables(grid, n_max, k_states, tol)
    layout: dict[str, tuple[list[str], list[np.ndarray]]] = {}
    for name, stem, field, labelings, first in _COLUMNS:
        names, parts = layout.setdefault(name, (["lambda"], [lams]))
        for labeling in labelings:
            for model in _MODELS:
                column = f"{stem}_{model}{labeling}"
                table = tables[f"{field}_{model}{labeling}"]
                parts.append(table)
                if first is None:
                    names.append(column)
                else:
                    names += [f"{column}_{i}" for i in range(first, first + table.shape[1])]
    regimes = [classify_regime(lam, grid.params_base.omega_c) for lam in lams.tolist()]
    datasets = {}
    for name, (names, parts) in layout.items():
        rows = np.column_stack(parts).tolist()
        if name == "fig2":
            names.append("regime")
            rows = [(*row, regime) for row, regime in zip(rows, regimes)]
        datasets[name] = Dataset(name=name, columns=tuple(names), rows=tuple(map(tuple, rows)))
    return datasets


def spectrum_dataset(
    params: ModelParams, n_max: int = 14, k_states: int = 7, *, tol: float = DEFAULT_TOL
) -> Dataset:
    """The lowest k_states + 1 levels of both Hamiltonians at one coupling
    (all of them if the basis holds fewer), in ``EigenSystem`` order:
    energy, parity, transition frequency from the ground state, photon
    number and atomic energy.

    Of the full Hamiltonian only the lowest k_states + 1 levels of each
    parity chain are solved, as in ``run_sweep``; they hold every row.  The
    residual check covers them and every RWA level.  Each cell has the bits
    of ``solve_rabi``/``solve_rwa`` and ``photon_number``/``atomic_energy``.
    """
    k_states = _check_k_states(k_states, least=0)
    _check_tol(tol)
    basis = build_basis(n_max)
    lams = np.array([params.lam])
    [(_, full)] = _rabi_chunks(params, lams, basis, min(k_states + 1, basis.n_max + 1), tol)
    rwa = _rwa_chains(params, lams, basis, tol)
    _check_residuals(lams, full, rwa)
    columns = ("model", "index", "energy", "parity", "nu", "photon_number", "atomic_energy")
    rows = []
    for model, chains in (("full", full), ("rwa", rwa)):
        order = chains.order[0, : k_states + 1]
        nbar, eatom = _observable_arrays(chains.vectors, params, chains.rows.T[:, None, :, None])
        energies, nbar, eatom = (array.ravel()[order] for array in (chains.values, nbar, eatom))
        odd = chains.odd[0, order]
        for k, energy in enumerate(energies.tolist()):
            parity = Parity.ODD if odd[k] else Parity.EVEN
            nu = float(energies[k] - energies[0])
            rows.append((model, k, energy, parity, nu, float(nbar[k]), float(eatom[k])))
    return Dataset(name="spectrum", columns=columns, rows=tuple(rows))


def absorption_dataset(
    params: ModelParams, n_max: int = 14, *, hermitian: bool = False, tol: float = DEFAULT_TOL
) -> Dataset:
    """Absorption sticks of both Hamiltonians at one coupling (fig5), lines
    above ``DEFAULT_LINE_THRESHOLD`` of the strongest."""
    basis = build_basis(n_max)
    columns = ("model", "from_index", "to_index", "frequency", "intensity", "raw_intensity")
    rows = []
    for model_name, solve in (("full", solve_rabi), ("rwa", solve_rwa)):
        eig = solve(params, basis, tol=tol)
        for line in absorption_lines(eig, basis, hermitian=hermitian):
            rows.append((model_name, *astuple(line)))
    return Dataset(name="fig5", columns=columns, rows=tuple(rows))

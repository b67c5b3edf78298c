"""Independent reference routes used by the tests.

Everything here but the sweep-row builder deliberately avoids the
library's own solvers so that numerical assertions compare two unrelated
computations: eigenvalue counts come from LDL^T inertia (scipy), bracketing
from Gershgorin discs, the extremal eigenvalue from plain bisection on the
count function, and state tracking across a sweep from eigenvector overlaps
instead of the symmetry labels the library tracks by.  ``sweep_rows``
builds the rows of ``run_sweep`` one grid point at a time from whole
eigensystems (``point_systems``, shared between tests), the reference for
the batched row assembly, and ``datasets_from_rows`` reads the sweep
datasets out of such rows cell by cell, the reference for the table
assembly of ``sweep_datasets``.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

import polariscope as ps
from polariscope import EigenSystem, Parity, ValidationError
from polariscope.experiments import _COLUMNS, _MODELS

#: Minimum eigenvector overlap for an unambiguous tracking step.
OVERLAP_MIN = 2.0**-0.5

#: Rounding slack on the overlap threshold.  A degenerate pair that
#: reorganizes into equal mixtures between grid points (e.g. the resonant
#: polariton fork at lambda = 0) yields a best overlap of exactly 1/sqrt(2),
#: which must not raise; float rounding can land it one ulp below.
_OVERLAP_EPS = 1e-9


def gershgorin_bounds(matrix: np.ndarray) -> tuple[float, float]:
    """Return an interval guaranteed to contain every eigenvalue."""
    diag = np.diag(matrix)
    radii = np.sum(np.abs(matrix), axis=1) - np.abs(diag)
    return float(np.min(diag - radii)), float(np.max(diag + radii))


def count_eigenvalues_below(matrix: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of ``matrix`` strictly below ``shift``.

    Uses the inertia of the LDL^T factorization of ``matrix - shift*I``.
    ``scipy.linalg.ldl`` may emit 2x2 blocks on ``D``'s diagonal; each such
    block contributes one positive and one negative eigenvalue (it only
    appears when a stable 1x1 pivot is unavailable, i.e. the block is
    indefinite).
    """
    shifted = matrix - shift * np.eye(matrix.shape[0])
    _, d, _ = scipy.linalg.ldl(shifted)
    count = 0
    i = 0
    n = d.shape[0]
    while i < n:
        if i + 1 < n and d[i, i + 1] != 0.0:
            count += 1  # indefinite 2x2 block: exactly one negative eigenvalue
            i += 2
        else:
            if d[i, i] < 0.0:
                count += 1
            i += 1
    return count


def smallest_eigenvalue(matrix: np.ndarray, *, steps: int = 200) -> float:
    """Smallest eigenvalue via bisection on the inertia count."""
    lo, hi = gershgorin_bounds(matrix)
    lo -= 1.0
    hi += 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if count_eigenvalues_below(matrix, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def reference_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues from LAPACK, for cross-checking multisets."""
    return np.linalg.eigvalsh(matrix)


class AmbiguousTracking(RuntimeError):
    """Best eigenvector overlap across a sweep step fell below 1/sqrt(2)."""

    def __init__(self, message, overlap=None):
        super().__init__(message)
        self.overlap = overlap


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


def _observable_arrays(eig: EigenSystem, params: ps.ModelParams):
    """Photon number and atomic energy of every eigenvector column."""
    weights = eig.eigenvectors**2
    nbar = (np.arange(eig.dim) // 2) @ weights
    eatom = params.omega1 + params.omega21 * np.sum(weights[1::2], axis=0)
    return nbar, eatom


def _curve_positions(labels: np.ndarray) -> np.ndarray:
    positions = np.empty(labels.size, dtype=int)
    positions[labels] = np.arange(labels.size)
    return positions


def _make_row(params, eig_full, eig_rwa, curves_full, curves_rwa, k) -> ps.SweepRow:
    odd = [j for j, p in enumerate(eig_full.parities) if p is Parity.ODD][:2]
    ground, minus, plus = _curve_positions(eig_rwa.labels)[:3]
    fields = {}
    peaks_full = eig_full.eigenvalues[odd] - eig_full.eigenvalues[0]
    peaks_rwa = eig_rwa.eigenvalues[[minus, plus]] - eig_rwa.eigenvalues[ground]
    for model, eig, curves, peaks in (
        ("full", eig_full, curves_full, peaks_full),
        ("rwa", eig_rwa, curves_rwa, peaks_rwa),
    ):
        nbar, eatom = _observable_arrays(eig, params)
        pos = _curve_positions(eig.labels)[curves]
        for field, values in (
            ("energies", eig.eigenvalues),
            ("photon_numbers", nbar),
            ("atomic_energies", eatom),
        ):
            fields[f"{field}_{model}"] = values[:k]
            fields[f"{field}_{model}_tracked"] = values[pos]
        fields[f"nu_{model}"] = eig.eigenvalues[1 : k + 1] - eig.eigenvalues[0]
        fields[f"nu_peaks_{model}"] = peaks
        fields[f"delta_nu_{model}"] = float(peaks[1] - peaks[0])
    return ps.SweepRow(
        lam=params.lam, regime=ps.classify_regime(params.lam, params.omega_c), **fields
    )


@functools.cache
def point_systems(
    grid: ps.SweepGrid, n_max: int
) -> tuple[tuple[EigenSystem, EigenSystem], ...]:
    """``(solve_rabi, solve_rwa)`` at each point of ``grid``, solved once per
    test session: the eigensystems are read-only, so tests share them."""
    basis = ps.build_basis(n_max)
    return tuple(
        (ps.solve_rabi(params, basis), ps.solve_rwa(params, basis))
        for params in (grid.params_base.with_lambda(float(lam)) for lam in grid.values())
    )


def sweep_rows(grid: ps.SweepGrid, n_max: int = 14, k_states: int = 7) -> list[ps.SweepRow]:
    """The rows of ``run_sweep(grid, n_max, k_states)``, each built from the
    whole eigensystems of its grid point: the sorted columns, the two lowest
    odd levels for the full peaks, and each tracked curve found by label."""
    rows = []
    curves_full = curves_rwa = None
    for lam, (eig_full, eig_rwa) in zip(grid.values(), point_systems(grid, n_max)):
        params = grid.params_base.with_lambda(float(lam))
        if curves_full is None:
            curves_full = eig_full.labels[:k_states]
            curves_rwa = eig_rwa.labels[:k_states]
        rows.append(_make_row(params, eig_full, eig_rwa, curves_full, curves_rwa, k_states))
    return rows


def _cells(row: ps.SweepRow, spec):
    """The values of ``row`` under ``spec``'s columns, in column order."""
    for _, field, first in spec:
        value = getattr(row, field)
        if first is None:
            yield value
        else:
            yield from value


def datasets_from_rows(rows: list[ps.SweepRow]) -> dict[str, ps.Dataset]:
    """The datasets of ``sweep_datasets`` read out of ``run_sweep``'s rows,
    one ``SweepRow`` field at a time, under the column layout
    ``experiments._COLUMNS`` declares."""
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
        datasets[name] = ps.Dataset(name=name, columns=tuple(columns), rows=table)
    return datasets

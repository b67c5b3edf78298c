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
assembly of ``sweep_datasets``.  ``spectrum_rows`` builds the rows of
``spectrum_dataset`` from whole eigensystems and one observable call per
state, the reference for its chain-level assembly.  ``rowwise_bisect`` and
``rowwise_inverse_iteration`` are the chain kernels as they were before
they ran rows first, one slice of the chain at a time: the bit reference
for the library's kernels, which keep the same operations in the same
order.  ``broadcast_bisect`` is ``_bisect`` as it was before its shift
was made contiguous and its brackets were updated in place, the reference
for that change.  ``run_with_blas_kernel`` runs a script in a fresh
process on a chosen OpenBLAS kernel, for tests that compare kernels.
``lapack_order`` sorts and labels LAPACK's eigenpairs of a built matrix by
the rule ``EigenSystem`` documents, the reference for the library's one
sort rule, which the other references share with the code they check.

``diagonalize`` is a dense cyclic Jacobi solver for any real symmetric
matrix, and ``parity_blocks`` splits a model matrix into its two parity
blocks.  Jacobi shares no code with the chain solvers: it is a
cross-check of them on the built matrices, and the bit reference of the
RWA rotations, which ``solve_rwa`` applies with the same operations.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import polariscope as ps
from polariscope import EigenSystem, Parity, ValidationError
from polariscope.eigensolve import (
    DEFAULT_TOL,
    _CLUSTER_GAP,
    _EPS,
    _HUGE,
    _TINY,
    INVERSE_STEPS,
    _orthogonalize_clusters,
    _radius,
    _rows_first,
)
from polariscope.experiments import _COLUMNS, _MODELS

#: Minimum eigenvector overlap for an unambiguous tracking step.
OVERLAP_MIN = 2.0**-0.5

#: Rounding slack on the overlap threshold.  A degenerate pair that
#: reorganizes into equal mixtures between grid points (e.g. the resonant
#: polariton fork at lambda = 0) yields a best overlap of exactly 1/sqrt(2),
#: which must not raise; float rounding can land it one ulp below.
_OVERLAP_EPS = 1e-9


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


#: Skips a test that picks the BLAS kernel where OPENBLAS_CORETYPE cannot.
needs_blas_kernel_choice = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_arch_openblas(),
    reason="OPENBLAS_CORETYPE picks the BLAS kernel only in a DYNAMIC_ARCH OpenBLAS on x86-64",
)


def run_with_blas_kernel(kernel: str | None, script: str, *args: str) -> bytes:
    """Standard output of ``python -c script args`` in a fresh process,
    single-threaded, with OpenBLAS on the kernel named ``kernel``
    (``OPENBLAS_CORETYPE``) or, for None, on the one it picks for the CPU."""
    src = str(Path(ps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    return done.stdout


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


@dataclass(frozen=True)
class OracleState:
    """One eigenstate of ``lapack_order``: its LAPACK eigenvalue, the parity
    sector that holds its weight, the row of its largest component, its
    ``EigenSystem`` label, and the run of values within ``tol`` (``group``)
    it belongs to."""

    value: float
    parity: Parity
    dominant: int
    label: int
    group: int


def lapack_order(
    matrix: np.ndarray, basis: ps.FockBasis, rwa: bool, tol: float
) -> list[OracleState]:
    """The eigenstates of a model ``matrix`` from LAPACK ``eigh``, labelled
    and sorted as ``EigenSystem`` documents it, in plain Python, without
    the library's solvers or sort rule.

    Values closer than ``tol`` to their neighbour form one group and count
    as tied: LAPACK may return any mixture of an even/odd tie, so each
    group's span is first split into parity sectors by diagonalizing the
    parity operator on it.  The sort key is (group, EVEN before ODD,
    dominant row).  Labels: for the full model ``2 * rank + (0 even, 1
    odd)``, rank by value within the parity, a tie ranking the state with
    more photons lower; for the RWA ``2n - 1`` and ``2n`` for the two states
    of excitation block n by value, a tie ranking the lower row first, 0 for
    |g,0> and ``dim - 1`` for |e,n_max>.
    """
    values, vectors = np.linalg.eigh(matrix)
    signs = basis.parity_signs
    groups = [0]
    for gap in np.diff(values).tolist():
        groups.append(groups[-1] + (gap > tol))
    for group in set(groups):
        members = [k for k, g in enumerate(groups) if g == group]
        if len(members) > 1:
            span = vectors[:, members]
            _, turn = np.linalg.eigh(span.T @ (signs[:, None] * span))
            vectors[:, members] = span @ turn
    states = []
    for k, value in enumerate(values.tolist()):
        weights = (vectors[:, k] ** 2).tolist()
        odd_weight = sum(w for w, sign in zip(weights, signs.tolist()) if sign < 0)
        states.append({
            "value": value,
            "parity": Parity.ODD if odd_weight > 0.5 else Parity.EVEN,
            "dominant": max(range(len(weights)), key=weights.__getitem__),
            "group": groups[k],
        })
    if rwa:
        blocks = {}
        for state in states:
            blocks.setdefault(int(basis.excitations[state["dominant"]]), []).append(state)
        for n, members in blocks.items():
            members.sort(key=lambda state: (state["value"], state["dominant"]))
            for branch, state in enumerate(members):
                if n == 0:  # |g,0>
                    state["label"] = 0
                elif n > basis.n_max:  # |e,n_max>
                    state["label"] = basis.dim - 1
                else:
                    state["label"] = 2 * n - 1 + branch
    else:
        for bit, parity in enumerate((Parity.EVEN, Parity.ODD)):
            chain = [state for state in states if state["parity"] is parity]
            chain.sort(key=lambda state: (state["value"], -state["dominant"]))
            for rank, state in enumerate(chain):
                state["label"] = 2 * rank + bit
    odd = Parity.ODD
    states.sort(key=lambda state: (state["group"], state["parity"] is odd, state["dominant"]))
    return [OracleState(**state) for state in states]


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
    """Photon number and atomic energy of every eigenvector column, each a
    plain-Python sum over the basis rows in ascending order."""
    nbar, eatom = [], []
    for column in eig.eigenvectors.T.tolist():
        photons = excited = 0.0
        for row, amplitude in enumerate(column):
            weight = amplitude * amplitude
            photons += row // 2 * weight
            if row % 2:
                excited += weight
        nbar.append(photons)
        eatom.append(params.omega1 + params.omega21 * excited)
    return np.array(nbar), np.array(eatom)


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


def spectrum_rows(params: ps.ModelParams, n_max: int, k_states: int, tol: float = DEFAULT_TOL):
    """The rows of ``spectrum_dataset(params, n_max, k_states)``, from the
    whole eigensystems of ``solve_rabi`` and ``solve_rwa`` and one
    ``photon_number``/``atomic_energy`` call per eigenvector column."""
    basis = ps.build_basis(n_max)
    rows = []
    for model, solve in (("full", ps.solve_rabi), ("rwa", ps.solve_rwa)):
        eig = solve(params, basis, tol=tol)
        for k in range(min(k_states + 1, eig.dim)):
            vector = eig.eigenvectors[:, k]
            rows.append(
                (
                    model,
                    k,
                    float(eig.eigenvalues[k]),
                    eig.parities[k],
                    float(eig.eigenvalues[k] - eig.eigenvalues[0]),
                    ps.photon_number(vector),
                    ps.atomic_energy(vector, params),
                )
            )
    return tuple(rows)


def rowwise_bisect(diag: np.ndarray, off: np.ndarray, levels: int) -> np.ndarray:
    """``eigensolve._bisect`` with each Sturm pass running down the chain's
    last axis one row at a time, counting as it goes."""
    radius = np.minimum(_radius(diag, off), 0.5 * _HUGE)
    bound = 2.0 * _EPS * radius + _TINY
    hi = radius + np.zeros(levels)
    lo = -hi
    index = np.arange(levels)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        off2 = off * off + _TINY
        while (active := hi - lo > bound).any():
            mid = 0.5 * (lo + hi)
            q = diag[..., :1] - mid
            below = np.zeros(q.shape, dtype=np.intp)
            below += q < 0
            for i in range(1, diag.shape[-1]):
                q = (diag[..., i : i + 1] - mid) - off2[..., i - 1 : i] / q
                below += q < 0
            above = below > index
            hi = np.where(active & above, mid, hi)
            lo = np.where(active & ~above, mid, lo)
    return 0.5 * (lo + hi)


def rowwise_inverse_iteration(
    diag: np.ndarray, off: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``eigensolve._inverse_iteration`` with its factorization and
    substitutions written one row slice at a time; the cluster
    orthogonalization is the library's own."""
    m = diag.shape[-1]
    radius = np.max(_radius(diag, off), axis=1, keepdims=True)
    floor = _EPS * radius
    piv = diag.T[:, None, :, None] - values
    off = off.transpose(2, 0, 1)[..., None]
    close = values[..., 1:] - values[..., :-1] <= _CLUSTER_GAP * radius
    key = np.arange(m)[:, None, None, None] * 7919 + np.arange(values.shape[-1]) * 104729 + 1
    v = (key * 2654435761 % 2**32) / 2.0**32 - 0.5 + np.zeros((*values.shape[:2], 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(m):
            piv[i] = np.where(np.abs(piv[i]) < floor, floor, piv[i])
            if i < m - 1:
                piv[i + 1] -= off[i] ** 2 / piv[i]
        mult = off / piv[:-1]
        for _ in range(INVERSE_STEPS):
            for i in range(1, m):
                v[i] -= mult[i - 1] * v[i - 1]
            v /= piv
            for i in range(m - 2, -1, -1):
                v[i] -= mult[i] * v[i + 1]
            v /= np.sqrt(np.sum(v * v, axis=0))
            _orthogonalize_clusters(v, close, mult, piv)
    return v


def broadcast_bisect(diag: np.ndarray, off: np.ndarray, levels: int) -> np.ndarray:
    """``eigensolve._bisect`` with each halving's shift broadcast from the
    chains' own diagonal and its brackets made anew by ``np.where``."""
    radius = np.minimum(_radius(diag, off), 0.5 * _HUGE)
    bound = 2.0 * _EPS * radius + _TINY
    hi = radius + np.zeros(levels)
    lo = -hi
    index = np.arange(levels)
    m = diag.shape[-1]
    shifted = _rows_first(diag, hi.ndim)
    q = np.empty((m, *hi.shape))
    t = np.empty(hi.shape)
    count = np.min_scalar_type(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        off2 = _rows_first(off * off + _TINY, hi.ndim)
        off2 = np.ascontiguousarray(np.broadcast_to(off2, (m - 1, *hi.shape)))
        steps = list(zip(off2, q[:-1], q[1:]))
        while (active := hi - lo > bound).any():
            mid = 0.5 * (lo + hi)
            np.subtract(shifted, mid, q)
            for o, previous, row in steps:
                np.divide(o, previous, t)
                np.subtract(row, t, row)
            above = np.less(q, 0).sum(axis=0, dtype=count) > index
            hi = np.where(active & above, mid, hi)
            lo = np.where(active & ~above, mid, lo)
    return 0.5 * (lo + hi)


#: Sweep budget of ``diagonalize`` before NonConvergence is raised.
DEFAULT_MAX_SWEEPS = 64

#: Summed squared amplitude on opposite-parity basis states above which
#: ``diagonalize`` tags an eigenvector as mixed (None) instead of EVEN/ODD.
PARITY_TOL = 1e-10


class BlockLeak(ValueError):
    """Nonzero matrix entry between opposite-parity basis states: a
    Hamiltonian-builder bug, since parity superselection requires such
    entries to be exactly zero."""


@dataclass(frozen=True)
class JacobiSystem:
    """Sorted orthonormal eigenpairs from ``diagonalize``.

    ``parities[k]`` tags eigenvector k EVEN or ODD when its weight on the
    opposite-parity basis states is at most ``PARITY_TOL``, and None (mixed)
    otherwise; ``parities`` is None when no basis was supplied.  ``sweeps``
    counts Jacobi sweeps, and ``residual`` is the final off-diagonal
    Frobenius norm.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: tuple[Parity | None, ...] | None
    sweeps: int
    residual: float

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the strict off-diagonal part."""
    return float(math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2)))


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """Jacobi rotation (t, c, s) that annihilates apq in [[app, apq], [apq, aqq]].

    The rotated diagonal is (app - t*apq, aqq + t*apq), with eigenvectors
    (c, -s) and (s, c) over (p, q).  A NaN theta gives the default quiet
    NaN for all three: which payload an operation on two NaNs keeps is left
    open by IEEE 754, and CPython's specialized float addition keeps a
    different one than its generic one.
    """
    theta = 0.5 * (aqq - app) / apq
    if theta != theta:
        return math.nan, math.nan, math.nan
    # Smaller-angle root of t^2 + 2t*theta - 1 = 0; hypot keeps the
    # expression finite for extreme theta.
    t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return t, c, t * c


def _jacobi(a: np.ndarray, tol: float, max_sweeps: int):
    """Run cyclic Jacobi sweeps in place; return (diag, vectors, sweeps, off).

    A matrix whose largest entry lies outside [2**-250, 2**250] is first
    scaled by the power of two that brings that entry into [0.5, 1), and
    ``diag`` and ``off`` are scaled back.  Otherwise the squares behind
    ``tol * ||A||_F`` and the off-diagonal norm underflow to 0 for entries
    below ~1e-154 (or overflow above ~1e154), and iteration stops before it
    starts.  Other matrices are not scaled, so their results keep every bit,
    subnormal entries included.
    """
    n = a.shape[0]
    v = np.eye(n)
    exponent = math.frexp(float(np.max(np.abs(a))))[1]
    if abs(exponent) <= 250:
        exponent = 0
    np.ldexp(a, -exponent, out=a)
    threshold = tol * float(np.linalg.norm(a))
    off = _off_norm(a)
    for sweep in range(max_sweeps):
        if off <= threshold:
            return np.ldexp(np.diagonal(a), exponent), v, sweep, math.ldexp(off, exponent)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                t, c, s = _rotation(app, aqq, apq)
                for rows in (a, v.T):
                    old_p = rows[p].copy()
                    rows[p] = c * old_p - s * rows[q]
                    rows[q] = s * old_p + c * rows[q]
                # Mirror the rotated rows into the columns so symmetry holds
                # exactly, then set the 2x2 block from its closed form.
                a[:, p] = a[p, :]
                a[:, q] = a[q, :]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
        off = _off_norm(a)
    off, threshold = math.ldexp(off, exponent), math.ldexp(threshold, exponent)
    if off <= threshold:
        return np.ldexp(np.diagonal(a), exponent), v, max_sweeps, off
    raise ps.NonConvergence(
        f"off-diagonal residual {off:.3e} above threshold {threshold:.3e} "
        f"after {max_sweeps} sweeps",
        residual=off,
    )


def _tag_parities(v: np.ndarray, basis: ps.FockBasis) -> tuple[Parity | None, ...]:
    even_mass, odd_mass = (np.sum(v[rows] ** 2, axis=0) for rows in basis.parity_chains)
    return tuple(
        Parity.EVEN if odd <= PARITY_TOL
        else Parity.ODD if even <= PARITY_TOL
        else None
        for even, odd in zip(even_mass, odd_mass)
    )


def _validate_symmetric(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must all be finite")
    if not np.array_equal(a, a.T):
        raise ValidationError("matrix must be exactly symmetric as stored")
    return a


def diagonalize(
    matrix,
    basis: ps.FockBasis | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> JacobiSystem:
    """Diagonalize a dense real symmetric matrix with cyclic Jacobi sweeps
    (row-sweep order): each sweep visits every strict upper-triangle pair
    (p, q) and applies a two-sided rotation annihilating that entry.

    Rotations are skipped where the target entry is already zero, so a
    matrix with an exact block structure (such as the parity blocks of the
    model Hamiltonians) never mixes its blocks.  Iteration stops once the
    off-diagonal norm is at most ``tol * ||A||_F``.  That bounds the error
    of each eigenvalue quadratically in the off-diagonal norm, but the error
    of each eigenvector only linearly: eigenvectors are accurate to about
    ``tol * ||A||_F / gap``, with gap the distance to the nearest other
    eigenvalue.

    Eigenvalues come back ascending; exact ties are ordered by parity tag
    (EVEN < ODD < mixed) and then by the row index of each eigenvector's
    largest-magnitude component, which is made positive (ties to the
    lowest index).  Passing the ``basis`` the matrix was built over enables
    the parity tags.  Raises NonConvergence if the sweep budget is exhausted
    and ValidationError for non-square, non-finite, or asymmetric input.
    """
    a = _validate_symmetric(matrix)
    diag, v, sweeps, off = _jacobi(a.copy(), tol, max_sweeps)
    dominant = np.argmax(np.abs(v), axis=0)
    v[:, v[dominant, np.arange(v.shape[1])] < 0.0] *= -1.0
    parities = None if basis is None else _tag_parities(v, basis)
    rank = [0] * diag.size if parities is None else [
        {Parity.EVEN: 0, Parity.ODD: 1, None: 2}[p] for p in parities
    ]
    order = np.lexsort((dominant, rank, diag))
    if parities is not None:
        parities = tuple(parities[i] for i in order)
    return JacobiSystem(diag[order], v[:, order], parities, sweeps, off)


def parity_blocks(matrix: np.ndarray, basis: ps.FockBasis):
    """Split a model matrix into its even- and odd-parity principal
    submatrices.

    Returns ``(even_block, odd_block, permutation)`` where ``permutation``
    lists the even-parity basis indices followed by the odd-parity ones, so
    ``matrix[np.ix_(permutation, permutation)]`` is block diagonal with the
    two returned blocks.  Raises BlockLeak if any cross-parity entry is
    nonzero, which signals a builder bug.
    """
    even_idx, odd_idx = basis.parity_chains
    cross = matrix[np.ix_(even_idx, odd_idx)]
    cross_t = matrix[np.ix_(odd_idx, even_idx)]
    leaks = int(np.count_nonzero(cross)) + int(np.count_nonzero(cross_t))
    if leaks:
        worst = max(float(np.abs(cross).max()), float(np.abs(cross_t).max()))
        raise BlockLeak(
            f"{leaks} nonzero cross-parity entries (largest magnitude {worst:.3e})"
        )
    permutation = np.concatenate([even_idx, odd_idx])
    return (
        matrix[np.ix_(even_idx, even_idx)],
        matrix[np.ix_(odd_idx, odd_idx)],
        permutation,
    )

"""Closed-form rotating-wave spectrum, transition frequencies, stick
absorption spectra, and coupling-regime classification.

The rotating-wave Hamiltonian decomposes into the decoupled ground state
|g,0> plus 2x2 blocks over {|g,n>, |e,n-1>} for each excitation number
n >= 1, so its spectrum has the closed form

    eps_(n, +/-) = (w1 + w2)/2 + n*w_c +/- sqrt(Delta^2 + 4 n lam^2)/2

with Delta = w21 - w_c, alongside the ground energy w1 + w_c/2.  The
zero-point term is included so these values match the matrix builders
exactly.  ``solve_rwa`` gives the whole eigensystem from the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import ValidationError
from .eigensolve import DEFAULT_TOL, EigenSystem, _chain_system, _check_tol, _rotation
from .model import FockBasis, ModelParams, bare_energies
from .observables import dipole_element

#: Default relative-intensity cutoff for absorption lines.
DEFAULT_LINE_THRESHOLD = 1e-6


class Branch(Enum):
    """Lower/upper member of a polariton doublet."""

    MINUS = "minus"
    PLUS = "plus"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RwaLevel:
    """One analytic rotating-wave level: block ``block_n``, branch, energy."""

    block_n: int
    branch: Branch
    energy: float


def rwa_ground_energy(params: ModelParams) -> float:
    """Energy of the decoupled |g,0> eigenstate: w1 + w_c/2."""
    return params.omega1 + 0.5 * params.omega_c


def rwa_analytic_levels(params: ModelParams, n: int) -> tuple[RwaLevel, RwaLevel]:
    """Closed-form polariton doublet of the n-excitation block (n >= 1).

    Returns ``(minus, plus)`` with energies
    (w1 + w2)/2 + n*w_c -/+ sqrt(Delta^2 + 4 n lam^2)/2.
    """
    if n != int(n) or n < 1:
        raise ValidationError(f"block number must be an integer >= 1, got {n!r}")
    n = int(n)
    center = 0.5 * (params.omega1 + params.omega2) + n * params.omega_c
    half_split = 0.5 * math.sqrt(params.detuning**2 + 4.0 * n * params.lam**2)
    return (
        RwaLevel(block_n=n, branch=Branch.MINUS, energy=center - half_split),
        RwaLevel(block_n=n, branch=Branch.PLUS, energy=center + half_split),
    )


def rwa_splitting(params: ModelParams, n: int) -> float:
    """Energy gap eps_plus - eps_minus of block n: sqrt(Delta^2 + 4 n lam^2)."""
    minus, plus = rwa_analytic_levels(params, n)
    return plus.energy - minus.energy


def solve_rwa(
    params: ModelParams, basis: FockBasis, *, tol: float = DEFAULT_TOL
) -> EigenSystem:
    """Eigensystem of ``build_rwa_hamiltonian(params, basis)`` in closed form.

    Each excitation block n = 1..n_max over (|e,n-1>, |g,n>) is one Jacobi
    rotation, the one ``diagonalize`` applies to the matrix, so both give
    the same bits; block 0 pairs the uncoupled |g,0> and |e,n_max>.  The
    minus branch of a block is |e,n-1>'s rotation when |g,n> lies at least
    as high, which also fixes the branches of a tie at lam = 0.  ``tol`` is
    checked as in ``solve_rabi_grid``.
    """
    _check_tol(tol)
    n = np.arange(basis.n_max + 1)
    rows = np.stack([2 * n - 1, 2 * n], axis=1)
    rows[0] = 0, basis.dim - 1
    diag = bare_energies(params, basis)[rows]
    off = params.lam * np.sqrt(n[:, None].astype(float))
    t, c, s = np.array([
        _rotation(p, q, b) if b else (0.0, 1.0, 0.0)
        for (p, q), (b,) in zip(diag.tolist(), off.tolist())
    ]).T
    values = diag + np.stack([-t, t], axis=1) * off
    v = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=2)
    labels = np.where(diag[:, 1:] < diag[:, :1], rows[:, ::-1], rows).ravel()
    return _chain_system(basis, rows, labels, tol, params.lam, 1, diag, off, values, v)


def transition_frequencies(eig: EigenSystem, ground_index: int = 0) -> np.ndarray:
    """Frequencies nu_k = E_k - E_ground for every state above the ground.

    With the default ``ground_index=0`` this is E[1:] - E[0], matching the
    ascending eigenvalue order.
    """
    if not 0 <= ground_index < eig.dim:
        raise ValidationError(
            f"ground_index {ground_index} outside 0..{eig.dim - 1}"
        )
    return eig.eigenvalues[ground_index + 1 :] - eig.eigenvalues[ground_index]


@dataclass(frozen=True)
class SpectralLine:
    """One absorption stick: ground -> eigenstate ``to_index``.

    ``intensity`` is relative (strongest line = 1); ``raw_intensity`` is the
    squared dipole element before normalization.
    """

    from_index: int
    to_index: int
    frequency: float
    intensity: float
    raw_intensity: float


def absorption_lines(
    eig: EigenSystem,
    basis: FockBasis,
    threshold: float = DEFAULT_LINE_THRESHOLD,
    *,
    hermitian: bool = False,
) -> list[SpectralLine]:
    """Stick absorption spectrum from the ground eigenstate.

    Computes the squared dipole element from eigenstate 0 to every higher
    eigenstate, normalizes so the strongest line has intensity 1, drops
    lines at or below the relative ``threshold``, and returns the rest
    sorted by frequency.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
    if eig.dim != len(basis):
        raise ValidationError(
            f"eigensystem dimension {eig.dim} does not match basis dimension {len(basis)}"
        )
    ground = eig.eigenvectors[:, 0]
    e0 = eig.eigenvalues[0]
    frequencies = []
    raw = []
    for k in range(1, eig.dim):
        element = dipole_element(ground, eig.eigenvectors[:, k], hermitian=hermitian)
        raw.append(element * element)
        frequencies.append(float(eig.eigenvalues[k] - e0))
    strongest = max(raw, default=0.0)
    if strongest == 0.0:
        return []
    lines = [
        SpectralLine(
            from_index=0,
            to_index=k,
            frequency=frequencies[k - 1],
            intensity=raw[k - 1] / strongest,
            raw_intensity=raw[k - 1],
        )
        for k in range(1, eig.dim)
        if raw[k - 1] / strongest > threshold
    ]
    lines.sort(key=lambda line: line.frequency)
    return lines


class Regime(IntEnum):
    """Coupling-strength regime of the ratio r = lam / w_c.

    The integer order encodes the physical order MODERATE < STRONG <
    ULTRA_STRONG < DEEP_STRONG.
    """

    MODERATE = 0
    STRONG = 1
    ULTRA_STRONG = 2
    DEEP_STRONG = 3

    @property
    def label(self) -> str:
        return _REGIME_LABELS[self]

    def __str__(self) -> str:
        return self.label


_REGIME_LABELS = {
    Regime.MODERATE: "moderate",
    Regime.STRONG: "strong",
    Regime.ULTRA_STRONG: "ultra-strong",
    Regime.DEEP_STRONG: "deep-strong",
}

_REGIME_BY_LABEL = {label: regime for regime, label in _REGIME_LABELS.items()}


def regime_from_label(label: str) -> Regime:
    """Inverse of ``Regime.label``."""
    try:
        return _REGIME_BY_LABEL[label]
    except KeyError:
        raise ValidationError(f"unknown regime label {label!r}") from None


def classify_regime(lam: float, omega_c: float = 1.0) -> Regime:
    """Classify the coupling ratio r = lam / w_c into its regime.

    Intervals are half-open with boundaries assigned to the lower regime:
    r <= 0.1 moderate, 0.1 < r <= 0.5 strong, 0.5 < r <= 1.0 ultra-strong,
    r > 1.0 deep-strong.
    """
    if not omega_c > 0:
        raise ValidationError(f"omega_c must be > 0, got {omega_c!r}")
    if not lam >= 0:
        raise ValidationError(f"lambda must be >= 0, got {lam!r}")
    ratio = lam / omega_c
    if ratio <= 0.1:
        return Regime.MODERATE
    if ratio <= 0.5:
        return Regime.STRONG
    if ratio <= 1.0:
        return Regime.ULTRA_STRONG
    return Regime.DEEP_STRONG

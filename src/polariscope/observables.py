"""Expectation values and dipole matrix elements in eigenstates.

All functions take real amplitude vectors over the canonical interleaved
basis (index(|g,n>) = 2n, index(|e,n>) = 2n+1), e.g. eigenvector columns of
an EigenSystem, and use that layout to identify the atomic level (index
parity) and photon number (index // 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, ValidationError
from .model import ModelParams

#: Allowed deviation of a state's Euclidean norm from 1.
NORM_TOL = 1e-10


def _as_state(state) -> np.ndarray:
    amps = np.asarray(state, dtype=float)
    if amps.ndim != 1 or amps.size == 0 or amps.size % 2 != 0:
        raise ValidationError(
            f"state must be a 1-D amplitude vector of even length, got shape {amps.shape}"
        )
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state must have unit norm, got {norm!r}")
    return amps


def photon_number(state) -> float:
    """Average photon number <a^dag a> of a normalized state."""
    amps = _as_state(state)
    n = np.arange(amps.size) // 2
    return float(np.dot(n, amps**2))


def atomic_energy(state, params: ModelParams) -> float:
    """Average energy stored in the atom, w1*P(g) + w2*P(e)."""
    amps = _as_state(state)
    p_g = float(np.sum(amps[0::2] ** 2))
    p_e = float(np.sum(amps[1::2] ** 2))
    return params.omega1 * p_g + params.omega2 * p_e


def _observable_arrays(vectors: np.ndarray, params: ModelParams):
    """Photon number and atomic energy of every column of ``vectors``
    (..., dim, S), with the unit-norm check of ``photon_number`` and
    ``atomic_energy``."""
    weights = vectors**2
    norms = np.sqrt(np.sum(weights, axis=-2))
    not_unit = np.abs(norms - 1.0) > NORM_TOL
    if not_unit.any():
        raise ValidationError(f"state must have unit norm, got {norms[not_unit][0]!r}")
    nbar = (np.arange(weights.shape[-2]) // 2) @ weights
    eatom = params.omega1 + params.omega21 * np.sum(weights[..., 1::2, :], axis=-2)
    return nbar, eatom


def dipole_element(initial, final, *, hermitian: bool = False) -> float:
    """Matrix element <final| mu |initial> of the dipole operator.

    The default dipole is mu = |e><g| (tensored with the identity on the
    photon sector), so the element is sum_n final(|e,n>) * initial(|g,n>).
    With ``hermitian=True`` the operator is mu + mu^dag instead.  Intensity
    consumers square the returned value.
    """
    a = np.asarray(initial, dtype=float)
    b = np.asarray(final, dtype=float)
    if a.shape != b.shape:
        raise BasisMismatch(
            f"states live on different bases: shapes {a.shape} vs {b.shape}"
        )
    if a.ndim != 1 or a.size % 2 != 0:
        raise ValidationError(
            f"states must be 1-D amplitude vectors of even length, got shape {a.shape}"
        )
    value = float(np.dot(b[1::2], a[0::2]))
    if hermitian:
        value += float(np.dot(b[0::2], a[1::2]))
    return value


@dataclass(frozen=True)
class EnergyPartition:
    """Decomposition of an eigenstate energy into physical pieces.

    ``interaction`` is defined as the remainder total - field - zero_point -
    atomic, so the identity field + zero_point + atomic + interaction ==
    total holds exactly by construction.
    """

    field: float
    zero_point: float
    atomic: float
    interaction: float
    total: float


def energy_partition(state, params: ModelParams, total_energy: float) -> EnergyPartition:
    """Split an eigenstate's energy into field, zero-point, atomic, and
    interaction contributions."""
    field = params.omega_c * photon_number(state)
    zero_point = 0.5 * params.omega_c
    atomic = atomic_energy(state, params)
    interaction = total_energy - field - zero_point - atomic
    return EnergyPartition(
        field=field,
        zero_point=zero_point,
        atomic=atomic,
        interaction=interaction,
        total=total_energy,
    )

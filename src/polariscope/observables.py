"""Expectation values and dipole matrix elements in eigenstates.

All functions take real amplitude vectors over the canonical interleaved
basis (index(|g,n>) = 2n, index(|e,n>) = 2n+1), e.g. eigenvector columns of
an EigenSystem, and use that layout to identify the atomic level (index
parity) and photon number (index // 2).

Every eigenvector-weighted sum adds its terms one basis row at a time, in
ascending row order: ``np.add.accumulate(terms, axis=0)[-1]``.  ``@``,
``np.dot``, ``np.sum`` and ``np.add.reduce`` instead group terms in an order
set by the array's layout and by the BLAS kernel, which OpenBLAS picks from
the CPU.  So a value has the same bits on any machine, whether its state is
a 1-D vector, a column of a C- or F-ordered matrix, or a parity chain's
vector, whose missing rows would only add zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, ValidationError
from .model import ModelParams

#: Allowed deviation of a state's Euclidean norm from 1.
NORM_TOL = 1e-10


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over axis 0, the basis rows, in ascending row order."""
    return np.add.accumulate(terms, axis=0)[-1]


def _observable_arrays(vectors: np.ndarray, params: ModelParams, rows: np.ndarray):
    """Photon number and atomic energy of every state in ``vectors``, whose
    axis 0 runs over basis rows: ``rows``, which broadcasts against
    ``vectors``, holds the basis index of each entry, ascending along axis
    0.  Raises ValidationError unless every state has unit norm."""
    weights = vectors**2
    norms = np.sqrt(_row_sums(weights))
    not_unit = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if not_unit.any():
        norm = float(norms[not_unit][0])
        raise ValidationError(f"state must have unit norm, got {norm!r}")
    nbar = _row_sums(rows // 2 * weights)
    eatom = params.omega1 + params.omega21 * _row_sums(rows % 2 * weights)
    return nbar, eatom


def _as_state(state) -> np.ndarray:
    amps = np.asarray(state, dtype=float)
    if amps.ndim != 1 or amps.size == 0 or amps.size % 2 != 0:
        raise ValidationError(
            f"state must be a 1-D amplitude vector of even length, got shape {amps.shape}"
        )
    return amps


def photon_number(state) -> float:
    """Average photon number <a^dag a> of a normalized state."""
    amps = _as_state(state)
    return float(_observable_arrays(amps, ModelParams(), np.arange(amps.size))[0])


def atomic_energy(state, params: ModelParams) -> float:
    """Average energy stored in the atom, w1 + w21 * P(e)."""
    amps = _as_state(state)
    return float(_observable_arrays(amps, params, np.arange(amps.size))[1])


def _dipole_elements(initial: np.ndarray, final: np.ndarray, hermitian: bool):
    """``dipole_element`` over axis 0 of ``initial`` and ``final``, which
    broadcast against each other."""
    elements = _row_sums(final[1::2] * initial[0::2])
    if hermitian:
        elements = elements + _row_sums(final[0::2] * initial[1::2])
    return elements


def dipole_element(initial, final, *, hermitian: bool = False) -> float:
    """Matrix element <final| mu |initial> of the dipole operator.

    The default dipole is mu = |e><g| (tensored with the identity on the
    photon sector), so the element is sum_n final(|e,n>) * initial(|g,n>).
    With ``hermitian=True`` the operator is mu + mu^dag instead.  Intensity
    consumers square the returned value.
    """
    a, b = _as_state(initial), _as_state(final)
    if a.shape != b.shape:
        raise BasisMismatch(f"states live on different bases: shapes {a.shape} vs {b.shape}")
    return float(_dipole_elements(a, b, hermitian))


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

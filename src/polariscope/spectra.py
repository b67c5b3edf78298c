"""Spectra of the two model Hamiltonians: the structured solvers, the
closed-form rotating-wave spectrum, transition frequencies, stick absorption
spectra, and coupling-regime classification.

Each parity sector of the full (Rabi) Hamiltonian is a symmetric
tridiagonal chain (Braak, PRL 107, 100401 (2011)),

    even: |g,0>, |e,1>, |g,2>, ...      odd: |e,0>, |g,1>, |e,2>, ...

with diagonal w_c (j + 1/2) plus the atom energy and off-diagonal
lam*sqrt(j+1), solved by the chain kernels of ``eigensolve`` over chunks of
the coupling grid, so parity is known by construction.

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
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import ValidationError
from .eigensolve import (
    DEFAULT_TOL,
    INVERSE_STEPS,
    EigenSystem,
    _bisect,
    _Chains,
    _check_residuals,
    _check_tol,
    _inverse_iteration,
    _point_system,
    _rotation,
)
from .model import FockBasis, ModelParams, bare_energies, build_basis

#: Default relative-intensity cutoff for absorption lines.
DEFAULT_LINE_THRESHOLD = 1e-6

#: Bytes one array of a chunk of grid points may take: (rows, points,
#: chains, levels) floats for a chunk stay within this, so the handful live
#: at once stay near 1 MB.
_CHUNK_BYTES = 2**17


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


def _rabi_chain_arrays(
    params: ModelParams, lams: np.ndarray, basis: FockBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis rows (2, m) and diagonal (2, m) of the full Hamiltonian's two
    parity chains, and their off-diagonals (p, 2, m-1) at the couplings
    ``lams`` (p,)."""
    m = basis.n_max + 1
    rows = basis.parity_chains
    # energies past the largest float become inf, which the residual check
    # rejects
    with np.errstate(over="ignore"):
        diag = bare_energies(params, basis)[rows]
        off = lams[:, None, None] * np.broadcast_to(np.sqrt(np.arange(1.0, m)), (2, m - 1))
    return rows, diag, off


def _rabi_pairs(
    rows: np.ndarray,
    diag: np.ndarray,
    off: np.ndarray,
    values: np.ndarray,
    zero: np.ndarray,
    tol: float,
) -> _Chains:
    """``_Chains`` of the lowest levels of the parity chains of
    ``_rabi_chain_arrays`` at p couplings, from their bisected eigenvalues
    ``values`` (p, 2, K).

    At the points ``zero`` (lam = 0) the chains are diagonal: ``values`` is
    overwritten there with the exact sorted diagonal and the eigenvectors
    are basis states (see ``solve_rabi``).  Elsewhere they come from
    inverse iteration.
    """
    m, levels = diag.shape[-1], values.shape[-1]
    order = np.stack([np.lexsort((-np.arange(m), chain)) for chain in diag])[:, :levels]
    values[zero] = diag[[[0], [1]], order]
    v = np.empty((m, *values.shape))
    v[:, zero] = np.eye(m)[:, None, order]
    on = ~zero
    v[:, on] = _inverse_iteration(diag, off[on], values[on])
    labels = 2 * np.arange(levels) + np.arange(2)[:, None]
    return _Chains(rows, labels, tol, diag, off, values, v)


def _rabi_chunks(
    params: ModelParams,
    lams: np.ndarray,
    basis: FockBasis,
    levels: int,
    tol: float,
) -> Iterator[tuple[slice, _Chains]]:
    """``_Chains`` of the lowest ``levels`` eigenpairs of both parity chains
    of the full Hamiltonian, for consecutive chunks of the grid ``lams``,
    each short enough that its C-ordered dense eigenvector columns in a
    sweep, 2 * dim * levels floats per point (see
    ``experiments._model_columns``), stay within ``_CHUNK_BYTES``.  Yields
    (chunk slice, chains).

    Bisection runs over the whole grid at once, since its arrays hold no
    chain rows.
    """
    rows, diag, off = _rabi_chain_arrays(params, lams, basis)
    values = _bisect(diag, off, levels)
    size = max(1, _CHUNK_BYTES // (8 * 2 * basis.dim * levels))
    for start in range(0, lams.size, size):
        chunk = slice(start, start + size)
        pairs = _rabi_pairs(rows, diag, off[chunk], values[chunk], lams[chunk] == 0.0, tol)
        yield chunk, pairs


def _rabi_ladder(
    params: ModelParams, n_maxes: list[int], k_states: int, tol: float
) -> np.ndarray:
    """The lowest ``k_states`` eigenvalues of the full Hamiltonian at each
    truncation of the ascending ``n_maxes``, shaped (rungs, k_states), with
    the bits of ``solve_rabi(...).eigenvalues[:k_states]`` at each rung.

    Neither the diagonal nor the off-diagonals of a parity chain depend on
    n_max, so each rung's chains are the leading rows of the largest
    rung's.  One bisection serves the whole ladder: the chains are stacked
    (rungs, 2, M), with the rows past each rung's end padded by an infinite
    diagonal and zero off-diagonals, which count no eigenvalue.  It finds
    only the lowest min(k_states, n_max + 1) levels of each chain, which
    hold the rung's lowest k_states.  Each rung then inverse-iterates those
    levels on its own chains and raises NonConvergence, rungs in ascending
    order, if their worst residual exceeds ``tol * ||H||_F``.
    """
    _check_tol(tol)
    lams = np.array([params.lam])
    rows, diag, off = _rabi_chain_arrays(params, lams, build_basis(n_maxes[-1]))
    sizes = [n_max + 1 for n_max in n_maxes]
    inside = np.arange(diag.shape[-1]) < np.array(sizes)[:, None, None]
    values = _bisect(
        np.where(inside, diag, np.inf),
        np.where(inside[..., 1:], off, 0.0),
        min(k_states, diag.shape[-1]),
    )
    energies = np.empty((len(sizes), k_states))
    for rung, size in enumerate(sizes):
        chains = _rabi_pairs(
            rows[:, :size],
            diag[:, :size],
            off[..., : size - 1],
            values[rung : rung + 1, :, : min(k_states, size)],
            lams == 0.0,
            tol,
        )
        _check_residuals(lams, chains)
        energies[rung] = np.sort(chains.values, axis=None)[:k_states]
    return energies


def solve_rabi(
    params: ModelParams, basis: FockBasis, *, tol: float = DEFAULT_TOL
) -> EigenSystem:
    """Eigensystem of ``build_rabi_hamiltonian(params, basis)`` from its two
    parity chains, without forming the matrix.

    At lam = 0 the chains are diagonal and each eigenvector is a basis
    state; a tie within a chain is ranked as a small coupling splits it at
    resonance, the state with more photons lower.

    ``tol`` keeps its Jacobi meaning as a bound relative to ``||H||_F``: a
    worst eigenpair residual ``||Hv - Ev||`` above ``tol * ||H||_F`` raises
    NonConvergence with the coupling attached.
    """
    _check_tol(tol)
    lams = np.array([params.lam])
    [(_, chains)] = _rabi_chunks(params, lams, basis, basis.n_max + 1, tol)
    _check_residuals(lams, chains)
    return _point_system(basis, chains, 0, INVERSE_STEPS)


def _rwa_chains(
    params: ModelParams, lams: np.ndarray, basis: FockBasis, tol: float
) -> _Chains:
    """Every eigenpair of the rotating-wave Hamiltonian at each coupling of
    the chunk ``lams``, as chains of length 2, one per excitation block.

    Each coupled block n = 1..n_max over (|e,n-1>, |g,n>) is turned by
    ``_rotation``, as ``diagonalize`` turns the matrix, so both give the
    same bits; uncoupled blocks, block 0 (|g,0>, |e,n_max>) among them, keep
    t = 0.  The minus branch of a block is |e,n-1>'s rotation when |g,n>
    lies at least as high, which also fixes the branches of a tie at lam = 0.
    """
    n = np.arange(basis.n_max + 1)
    rows = np.stack([2 * n - 1, 2 * n], axis=1)
    rows[0] = 0, basis.dim - 1
    # energies past the largest float leave inf and nan, which the residual
    # check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        diag = bare_energies(params, basis)[rows]
        off = lams[:, None, None] * np.sqrt(n[:, None].astype(float))
        pairs = np.broadcast_to(diag, (*off.shape[:2], 2))
        rotations = [
            _rotation(app, aqq, apq) if apq != 0.0 else (0.0, 1.0, 0.0)
            for (app, aqq), apq in zip(pairs.reshape(-1, 2).tolist(), off.ravel().tolist())
        ]
        t, c, s = np.reshape(rotations, (*off.shape[:2], 3)).transpose(2, 0, 1)
        values = diag + np.stack([-t, t], axis=-1) * off
    v = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)])
    labels = np.where(diag[:, 1:] < diag[:, :1], rows[:, ::-1], rows)
    return _Chains(rows, labels, tol, diag, off, values, v)


def solve_rwa(
    params: ModelParams, basis: FockBasis, *, tol: float = DEFAULT_TOL
) -> EigenSystem:
    """Eigensystem of ``build_rwa_hamiltonian(params, basis)`` in closed form,
    from its 2x2 excitation blocks (see ``_rwa_chains``).  ``tol`` is
    checked as in ``solve_rabi``.
    """
    _check_tol(tol)
    lams = np.array([params.lam])
    chains = _rwa_chains(params, lams, basis, tol)
    _check_residuals(lams, chains)
    return _point_system(basis, chains, 0, 1)


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

    Computes the squared dipole element (see ``dipole_element``) from
    eigenstate 0 to every higher eigenstate in one matrix-vector product,
    normalizes so the strongest line has intensity 1, drops lines at or
    below the relative ``threshold``, and returns the rest sorted by
    frequency.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
    if eig.dim != len(basis):
        raise ValidationError(
            f"eigensystem dimension {eig.dim} does not match basis dimension {len(basis)}"
        )
    vectors = eig.eigenvectors
    elements = vectors[0::2, 0] @ vectors[1::2, 1:]
    if hermitian:
        elements = elements + vectors[1::2, 0] @ vectors[0::2, 1:]
    raw = elements * elements
    strongest = float(np.max(raw, initial=0.0))
    if strongest == 0.0:
        return []
    frequencies = (eig.eigenvalues[1:] - eig.eigenvalues[0]).tolist()
    lines = [
        SpectralLine(
            from_index=0,
            to_index=k,
            frequency=frequency,
            intensity=weight / strongest,
            raw_intensity=weight,
        )
        for k, (frequency, weight) in enumerate(zip(frequencies, raw.tolist()), start=1)
        if weight / strongest > threshold
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

"""Spectra of the two model Hamiltonians: the structured solvers, the
closed-form rotating-wave spectrum, stick absorption spectra, and
coupling-regime classification.

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
from enum import IntEnum

import numpy as np

from .errors import ValidationError
from .eigensolve import (
    DEFAULT_TOL,
    EigenSystem,
    _bisect,
    _Chains,
    _check_residuals,
    _check_tol,
    _inverse_iteration,
    _point_system,
    _rotations,
)
from .model import FockBasis, ModelParams, bare_energies, build_basis
from .observables import _dipole_elements

#: Default relative-intensity cutoff for absorption lines.
DEFAULT_LINE_THRESHOLD = 1e-6

#: Bytes that bisection's rows-first arrays over a chunk of grid points,
#: its shifted diagonal, pivots and squared off-diagonals ((3m - 1, points,
#: chains, levels) floats in all), may take; the two (m, points, chains,
#: levels) arrays of inverse iteration then take about 2/3 of it.  Each
#: chunk pays fixed costs (the row loops of bisection and inverse
#: iteration, the observables and the table columns), so the default sweep
#: (~0.68 MB) runs as one chunk; chunks much shorter than the default grid
#: slow bisection down, since each numpy call of its row loop then does
#: little work.
_CHUNK_BYTES = 2**20


def rwa_ground_energy(params: ModelParams) -> float:
    """Energy of the decoupled |g,0> eigenstate: w1 + w_c/2."""
    return params.omega1 + 0.5 * params.omega_c


def rwa_analytic_levels(params: ModelParams, n: int) -> tuple[float, float]:
    """Closed-form polariton doublet of the n-excitation block (n >= 1).

    Returns the energies ``(minus, plus)``,
    (w1 + w2)/2 + n*w_c -/+ sqrt(Delta^2 + 4 n lam^2)/2; their gap
    ``plus - minus`` is the splitting sqrt(Delta^2 + 4 n lam^2).
    """
    if n != int(n) or n < 1:
        raise ValidationError(f"block number must be an integer >= 1, got {n!r}")
    n = int(n)
    center = 0.5 * (params.omega1 + params.omega2) + n * params.omega_c
    half_split = 0.5 * math.sqrt(params.detuning**2 + 4.0 * n * params.lam**2)
    return center - half_split, center + half_split


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


def _diagonal_pairs(diag: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``levels`` eigenpairs of uncoupled (lam = 0) chains with
    diagonal ``diag`` (..., m): the sorted diagonal (..., levels) and basis
    vectors (m, ..., levels).  A tie within a chain is ranked as a small
    coupling splits it at resonance, the state with more photons lower (see
    ``solve_rabi``); NaN rows sort last."""
    m = diag.shape[-1]
    order = np.lexsort((np.broadcast_to(-np.arange(m), diag.shape), diag), axis=-1)[..., :levels]
    return np.take_along_axis(diag, order, axis=-1), np.eye(m)[:, order]


def _rabi_pairs(
    params: ModelParams,
    lams: np.ndarray,
    basis: FockBasis,
    sizes: np.ndarray,
    levels: int,
    tol: float,
) -> _Chains:
    """``_Chains`` of the lowest ``levels`` eigenpairs of the full
    Hamiltonian's two parity chains at the couplings ``lams`` (p,), the
    chains of point i cut to their leading ``sizes[i]`` rows of ``basis``'s:
    neither the diagonal nor the off-diagonals of a chain depend on n_max,
    so those are the chains of n_max = sizes[i] - 1.

    The rows past a point's end are padded with diagonal +inf and
    off-diagonal 0, which count no eigenvalue in bisection and leave
    eigenvectors exactly 0 in inverse iteration, so each point keeps the
    bits of a solve of its own chains alone; lanes past its end hold NaN.
    At the points where lam = 0 the chains are diagonal: the levels are the
    exact sorted diagonal and the eigenvectors basis states
    (``_diagonal_pairs``).  Only the other points are bisected and
    inverse-iterated.
    """
    rows, diag, off = _rabi_chain_arrays(params, lams, basis)
    inside = np.arange(diag.shape[-1]) < sizes[:, None, None]
    off = np.where(inside[..., 1:], off, 0.0)
    padded = np.where(inside, diag, np.inf)
    zero = lams == 0.0
    # an index array: a mask pages ~0.1 MB more code into a converge run
    on = np.flatnonzero(~zero)
    coupled = padded[on], off[on]
    values = np.empty((lams.size, 2, levels))
    values[on] = _bisect(*coupled, levels)
    np.copyto(values, np.nan, where=np.arange(levels) >= sizes[:, None, None])
    exact, basis_vectors = _diagonal_pairs(np.where(inside[zero], diag, np.nan), levels)
    values[zero] = exact
    v = np.empty((diag.shape[-1], *values.shape))
    v[:, zero] = basis_vectors
    v[:, on] = _inverse_iteration(*coupled, values[on])
    labels = 2 * np.arange(levels) + np.arange(2)[:, None]
    return _Chains(basis, rows, labels, tol, diag, off, values, v, sizes)


def _rabi_chunks(
    params: ModelParams,
    lams: np.ndarray,
    basis: FockBasis,
    levels: int,
    tol: float,
) -> Iterator[tuple[slice, _Chains]]:
    """``_Chains`` of the lowest ``levels`` eigenpairs of both parity chains
    of the full Hamiltonian, for consecutive chunks of the grid ``lams``.
    Yields (chunk slice, chains).  A chunk is short enough that bisection's
    rows-first arrays, 3m - 1 rows of (points, 2, levels) floats with
    m = n_max + 1 = dim / 2, stay within ``_CHUNK_BYTES``.  Each point is
    bisected and inverse-iterated on its own, so its bits do not depend on
    the chunk.
    """
    m = basis.n_max + 1
    size = max(1, _CHUNK_BYTES // (8 * (3 * m - 1) * 2 * levels))
    for start in range(0, lams.size, size):
        chunk = lams[start : start + size]
        sizes = np.full(chunk.size, m)
        yield slice(start, start + size), _rabi_pairs(params, chunk, basis, sizes, levels, tol)


def _rabi_ladder(
    params: ModelParams, n_maxes: list[int], k_states: int, tol: float
) -> np.ndarray:
    """The lowest ``k_states`` eigenvalues of the full Hamiltonian at each
    truncation of the ascending ``n_maxes``, shaped (rungs, k_states), with
    the bits of ``solve_rabi(...).eigenvalues[:k_states]`` at each rung.

    The rungs are solved as the points of one ``_rabi_pairs`` call, each
    rung's chains the leading rows of the largest rung's, for only the
    lowest min(k_states, n_max + 1) levels of each chain, which hold the
    rung's lowest k_states.  Each rung's residual and threshold have the
    bits of a solve of that rung alone, and NonConvergence is raised at the
    first rung, in ascending order, whose residual exceeds its
    ``tol * ||H||_F``.
    """
    _check_tol(tol)
    sizes = np.array(n_maxes) + 1
    lams = np.full(sizes.size, params.lam)
    basis, levels = build_basis(n_maxes[-1]), min(k_states, sizes[-1])
    chains = _rabi_pairs(params, lams, basis, sizes, levels, tol)
    _check_residuals(lams, chains)
    return np.sort(chains.values.reshape(sizes.size, -1), axis=-1)[:, :k_states]


def solve_rabi(
    params: ModelParams, basis: FockBasis, *, tol: float = DEFAULT_TOL
) -> EigenSystem:
    """Eigensystem of ``build_rabi_hamiltonian(params, basis)`` from its two
    parity chains, without forming the matrix.

    At lam = 0 the chains are diagonal and each eigenvector is a basis
    state; a tie within a chain is ranked as a small coupling splits it at
    resonance, the state with more photons lower.

    ``tol`` is a bound relative to ``||H||_F``: a worst eigenpair residual
    ``||Hv - Ev||`` above ``tol * ||H||_F`` raises NonConvergence with the
    coupling attached.
    """
    _check_tol(tol)
    lams = np.array([params.lam])
    [(_, chains)] = _rabi_chunks(params, lams, basis, basis.n_max + 1, tol)
    _check_residuals(lams, chains)
    return _point_system(basis, chains, 0)


def _rwa_chains(
    params: ModelParams, lams: np.ndarray, basis: FockBasis, tol: float
) -> _Chains:
    """Every eigenpair of the rotating-wave Hamiltonian at each coupling of
    the chunk ``lams``, as chains of length 2, one per excitation block.

    Each coupled block n = 1..n_max over (|e,n-1>, |g,n>) is turned by the
    Jacobi rotation that ``_rotations`` computes for every block at once;
    uncoupled blocks, block 0 (|g,0>, |e,n_max>) among them, keep t = 0.
    The minus branch of a block is |e,n-1>'s rotation when |g,n> lies at
    least as high, which also fixes the branches of a tie at lam = 0.
    """
    n = np.arange(basis.n_max + 1)
    rows = np.stack([2 * n - 1, 2 * n], axis=1)
    rows[0] = 0, basis.dim - 1
    # energies past the largest float leave inf and nan, which the residual
    # check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        diag = bare_energies(params, basis)[rows]
        off = lams[:, None, None] * np.sqrt(n[:, None].astype(float))
        t, c, s = _rotations(diag[:, 0], diag[:, 1], off[..., 0])
        values = diag + np.stack([-t, t], axis=-1) * off
    v = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)])
    labels = np.where(diag[:, 1:] < diag[:, :1], rows[:, ::-1], rows)
    return _Chains(basis, rows, labels, tol, diag, off, values, v, np.full(lams.size, 2))


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
    return _point_system(basis, chains, 0)


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

    Computes the squared dipole element (see ``dipole_element``, whose bits
    each element has) from eigenstate 0 to every higher eigenstate,
    normalizes so the strongest line has intensity 1, drops lines at or
    below the relative ``threshold``, and returns the rest sorted by
    frequency.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
    if eig.dim != basis.dim:
        raise ValidationError(
            f"eigensystem dimension {eig.dim} does not match basis dimension {basis.dim}"
        )
    elements = _dipole_elements(eig.eigenvectors[:, :1], eig.eigenvectors[:, 1:], hermitian)
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

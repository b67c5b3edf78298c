"""Eigensolvers: a dense Jacobi solver for any real symmetric matrix, and
batched kernels for symmetric tridiagonal chains, which the structured
solvers of the two model Hamiltonians (``spectra.solve_rabi``,
``spectra.solve_rwa``), the sweep tables of ``experiments.run_sweep`` and
the truncation ladder of ``experiments.convergence_study`` are built from.

The chain kernels work on arrays over a chunk of grid points at once:
Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967))
for the lowest K eigenvalues of each chain, inverse iteration for their
eigenvectors, then each point's worst residual and the sign convention of
``diagonalize``.  Every point keeps its own spectral radius, so a point's
bits do not depend on the chunk it is solved in, nor on K.
``_point_system`` turns one point of complete chains into the
``EigenSystem`` that ``diagonalize`` returns, with the same ordering and
sign conventions.

``diagonalize`` is a cyclic Jacobi method (row-sweep order): each sweep
visits every strict upper-triangle pair (p, q) and applies a two-sided
rotation annihilating that entry.  Rotations preserve symmetry exactly as
stored, and because rotations are skipped when the target entry is already
zero, matrices with an exact block structure (such as the parity blocks of
the model Hamiltonians) never mix their blocks, so eigenvectors stay
block-pure.  It remains the general-matrix API and the cross-check of the
structured solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, NonConvergence, ValidationError
from .model import FockBasis, Parity

#: Default convergence tolerance, relative to the Frobenius norm.
DEFAULT_TOL = 1e-12

#: Default sweep budget before NonConvergence is raised.
DEFAULT_MAX_SWEEPS = 64

#: Summed squared amplitude on opposite-parity basis states above which an
#: eigenvector is tagged MIXED instead of EVEN/ODD.
PARITY_TOL = 1e-10

#: Inverse-iteration steps per eigenvector.  The shifts come from bisection
#: to full precision, so one step already amplifies the wanted eigenvector by
#: ~1/eps; the second removes what the first solve left of the start vector
#: (one step leaves residuals near 5e-12 ||H||, two reach the rounding floor).
INVERSE_STEPS = 2

#: Eigenvalues of one chain closer than this fraction of the spectral radius
#: are re-orthogonalized as a cluster during inverse iteration (the rule of
#: LAPACK's dstein).
_CLUSTER_GAP = 1e-3

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

_PARITY_RANK = {Parity.EVEN: 0, Parity.ODD: 1, Parity.MIXED: 2}


@dataclass(frozen=True)
class EigenSystem:
    """Sorted orthonormal eigenpairs of a real symmetric matrix.

    ``eigenvalues`` is ascending and ``eigenvectors[:, k]`` is the unit
    eigenvector of ``eigenvalues[k]``.  ``parities[k]`` labels eigenvector k
    as EVEN/ODD: by construction from the structured solvers, and from
    ``diagonalize`` when its weight on the opposite-parity basis states is at
    most ``PARITY_TOL`` (MIXED otherwise; None when no basis was supplied).
    ``sweeps`` counts Jacobi sweeps or inverse-iteration steps.
    ``residual`` is the final off-diagonal Frobenius norm for Jacobi and the
    worst eigenpair residual ||Hv - Ev|| for the structured solvers.

    ``labels`` (structured solvers only, else None) names each eigenvector
    by symmetry, with the same integer for the same state at every coupling,
    so sweeps track states by label.  Labels are a permutation of
    0..dim-1: ``2 * rank + (0 even, 1 odd)`` for the full model, where rank
    counts upward within the parity chain, and for the RWA ``2n - 1`` and
    ``2n`` for the minus and plus branch of excitation block n, with 0 for
    |g,0> and ``dim - 1`` for |e,n_max>.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: tuple[Parity, ...] | None
    sweeps: int
    residual: float
    labels: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the strict off-diagonal part."""
    return float(math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2)))


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """Jacobi rotation (t, c, s) that annihilates apq in [[app, apq], [apq, aqq]].

    The rotated diagonal is (app - t*apq, aqq + t*apq), with eigenvectors
    (c, -s) and (s, c) over (p, q).
    """
    theta = 0.5 * (aqq - app) / apq
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
    raise NonConvergence(
        f"off-diagonal residual {off:.3e} above threshold {threshold:.3e} "
        f"after {max_sweeps} sweeps",
        residual=off,
    )


def _sorted_system(values, dominant, parities, vectors, sweeps, residual, labels=None):
    """Read-only EigenSystem sorted by eigenvalue, exact ties by parity (EVEN
    < ODD < MIXED) and then by ``dominant``, the row of each eigenvector's
    largest component.  The sorted ``vectors`` are a C-ordered copy: BLAS
    sums ``n @ v**2`` in another order over an F-ordered matrix."""
    rank = [0] * values.size if parities is None else [_PARITY_RANK[p] for p in parities]
    order = np.lexsort((dominant, rank, values))
    values = values[order]
    vectors = np.ascontiguousarray(vectors[:, order])
    if parities is not None:
        parities = tuple(parities[i] for i in order)
    if labels is not None:
        labels = labels[order]
        labels.setflags(write=False)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(values, vectors, parities, sweeps, residual, labels)


def _tag_parities(v: np.ndarray, basis: FockBasis) -> tuple[Parity, ...]:
    even_mass, odd_mass = (np.sum(v[rows] ** 2, axis=0) for rows in basis.parity_chains)
    return tuple(
        Parity.EVEN if odd <= PARITY_TOL
        else Parity.ODD if even <= PARITY_TOL
        else Parity.MIXED
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


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol!r}")


def diagonalize(
    matrix,
    basis: FockBasis | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> EigenSystem:
    """Diagonalize a dense real symmetric matrix with cyclic Jacobi sweeps.

    ``tol`` is relative to the Frobenius norm: iteration stops once the
    off-diagonal norm is at most ``tol * ||A||_F``.  That bounds the error of
    each eigenvalue quadratically in the off-diagonal norm, but the error of
    each eigenvector only linearly: eigenvectors are accurate to about
    ``tol * ||A||_F / gap``, with gap the distance to the nearest other
    eigenvalue.

    Eigenvalues come back ascending; exact degeneracies are ordered by
    parity tag (EVEN < ODD < MIXED) and then by the row index of each
    eigenvector's largest-magnitude component, which together with the
    positive-leading-component sign convention makes the output
    deterministic.  Passing the ``basis`` the matrix was built over enables
    the parity tags.

    Raises NonConvergence if the sweep budget is exhausted, ValidationError
    for non-square, non-finite, or asymmetric input, and BasisMismatch if the
    matrix dimension disagrees with the supplied basis.
    """
    a = _validate_symmetric(matrix)
    if basis is not None and len(basis) != a.shape[0]:
        raise BasisMismatch(
            f"matrix dimension {a.shape[0]} does not match basis dimension {len(basis)}"
        )
    _check_tol(tol)
    if max_sweeps < 0:
        raise ValidationError(f"max_sweeps must be >= 0, got {max_sweeps!r}")

    diag, v, sweeps, off = _jacobi(a.copy(), tol, max_sweeps)
    # largest-magnitude component positive; ties go to the lowest index
    dominant = np.argmax(np.abs(v), axis=0)
    v[:, v[dominant, np.arange(v.shape[1])] < 0.0] *= -1.0
    parities = None if basis is None else _tag_parities(v, basis)
    return _sorted_system(diag, dominant, parities, v, sweeps, off)


def _radius(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """A bound on the spectral radius of each chain, shaped (..., 1), over
    its finite rows: rows padded with an infinite diagonal (and zero
    off-diagonals) are not part of the chain."""
    return np.max(
        np.abs(diag), axis=-1, keepdims=True, where=diag < np.inf, initial=0.0
    ) + 2.0 * np.max(np.abs(off), axis=-1, keepdims=True, initial=0.0)


def _bisect(diag: np.ndarray, off: np.ndarray, levels: int) -> np.ndarray:
    """The lowest ``levels`` eigenvalues of symmetric tridiagonal chains,
    ascending, by bisection.

    ``diag`` (..., m) and ``off`` (..., m-1) broadcast against each other.
    Each eigenvalue's bracket is halved until it spans at most two ulps of
    its chain's spectral radius; a bracket stops moving once it is that
    narrow, so an eigenvalue does not depend on what else is batched with
    it, nor on how many levels are asked for.  The count of eigenvalues
    below a shift x is the number of negative pivots of the LDL^T
    factorization of T - x (Sturm count).  A zero or tiny pivot makes the
    next pivot -inf, which counts it as an infinitesimal positive one;
    ``off2`` is kept positive so that no 0/0 arises.

    A chain may be padded past its end with rows of diagonal +inf and
    off-diagonal 0: their pivots are +inf (or NaN after a zero pivot), and
    neither counts, so the padded chain keeps the bits of the unpadded one
    in every level it has.

    The brackets start at +-radius, capped at half the largest float so
    that ``lo + hi`` cannot overflow; a chain that large overflows inverse
    iteration, whose residual check then rejects it.
    """
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


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of chains (c, m) over a chunk of grid points.

    ``off`` (p, c, m-1) holds each point's nonzero off-diagonals and
    ``values`` (p, c, K) the lowest K eigenvalues of each chain, ascending;
    the result is (m, p, c, K) with ``[:, i, s, k]`` the eigenvector of
    ``values[i, s, k]``.  All shifts run at once: T - value = L D L^T is
    factored once (pivots below eps times the point's spectral radius are
    raised to it), then each step solves with it and normalizes.
    Eigenvalues closer than ``_CLUSTER_GAP`` of that radius are
    Gram-Schmidt orthogonalized against the lower members of their cluster
    after every step, as in LAPACK's dstein, which also separates exact
    ties.  Every operation acts on one point and one eigenvector at a time,
    so a column's bits depend neither on the chunk nor on K.  Iterates that
    overflow leave non-finite vectors, which the residual check rejects.
    """
    m = diag.shape[-1]
    radius = np.max(_radius(diag, off), axis=1, keepdims=True)
    floor = _EPS * radius
    # row-major working layout: [row i, point, chain, eigenvalue k]
    piv = diag.T[:, None, :, None] - values
    off = off.transpose(2, 0, 1)[..., None]
    close = values[..., 1:] - values[..., :-1] <= _CLUSTER_GAP * radius
    # Generic, distinct start vectors per eigenvalue (multiplicative hashing
    # of the position), so that tied shifts still produce independent
    # iterates for the cluster orthogonalization.
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
            for point, s, k in zip(*np.nonzero(close)):
                first = k
                while first > 0 and close[point, s, first - 1]:
                    first -= 1
                # contiguous copies round alike whatever the chunk's layout
                cluster = v[:, point, s, first : k + 1].copy()
                w = v[:, point, s, k + 1].copy()
                for _ in range(2):
                    w -= cluster @ (cluster.T @ w)
                v[:, point, s, k + 1] = w / math.sqrt(w @ w)
    return v


class _Chains:
    """Eigenpairs of the chains (c, L) of basis states ``rows`` at each
    point of a chunk of the coupling grid, from the eigenvalues ``values``
    (p, c, K), ascending along each chain, and unit eigenvectors ``v``
    (L, p, c, K) of chains with diagonal ``diag`` (c, L) and off-diagonals
    ``off`` (p, c, L-1).

    ``vectors`` are ``v`` with each column's largest component made
    positive, and ``dominant`` (p, c, K) is that component's basis index.
    ``labels`` (c, K) names each chain column (see ``EigenSystem``).
    ``residual`` (p,) is each point's worst eigenpair residual
    ``||Hv - Ev||`` and ``threshold`` (p,) its ``tol * ||H||_F``.
    """

    def __init__(self, rows, labels, tol, diag, off, values, v):
        # entries past the float range leave inf and nan residuals, which
        # _check_residuals rejects
        with np.errstate(over="ignore", invalid="ignore"):
            offs = off.transpose(2, 0, 1)[..., None]
            r = (diag.T[:, None, :, None] - values) * v
            r[1:] += offs * v[:-1]
            r[:-1] += offs * v[1:]
            self.residual = np.sqrt(np.max(np.sum(r * r, axis=0), axis=(1, 2)))
            squares = np.sum(diag * diag) + 2.0 * np.sum((off * off).reshape(len(off), -1), axis=1)
        top = np.argmax(np.abs(v), axis=0)
        point = np.arange(len(off))[:, None, None]
        chain = np.arange(len(diag))[:, None]
        lead = v[top, point, chain, np.arange(values.shape[-1])]
        self.rows, self.labels, self.values = rows, labels, values
        self.vectors = v * np.where(lead < 0.0, -1.0, 1.0)
        self.dominant = rows[chain, top]
        self.threshold = tol * np.sqrt(squares)


def _check_residuals(lams: np.ndarray, *models: _Chains) -> None:
    """Raise NonConvergence at the first point of ``lams``, in grid order
    and then in argument order, where a model's residual exceeds its
    threshold."""
    failed = np.stack([~(chains.residual <= chains.threshold) for chains in models], axis=1)
    if failed.any():
        point, model = divmod(int(np.argmax(failed)), len(models))
        residual, threshold = models[model].residual[point], models[model].threshold[point]
        message = f"eigenvector residual {residual:.3e} above threshold {threshold:.3e}"
        raise NonConvergence(message, residual=float(residual), lam=float(lams[point]))


def _point_system(basis: FockBasis, chains: _Chains, point: int, sweeps: int) -> EigenSystem:
    """The EigenSystem of one point of chains that hold every eigenpair,
    each vector written once into a dense matrix in chain-major column
    order, of which ``_sorted_system`` returns a sorted C-ordered copy."""
    rows, dominant = chains.rows, chains.dominant[point].ravel()
    vectors = np.zeros((basis.dim, basis.dim))
    columns = np.arange(dominant.size).reshape(rows.shape[0], -1)
    vectors[rows[:, :, None], columns[:, None]] = chains.vectors[:, point].transpose(1, 0, 2)
    parities = [Parity.EVEN if s > 0 else Parity.ODD for s in basis.parity_signs[dominant]]
    values, labels = chains.values[point].ravel(), chains.labels.ravel()
    residual = float(chains.residual[point])
    return _sorted_system(values, dominant, parities, vectors, sweeps, residual, labels)

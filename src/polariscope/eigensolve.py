"""Eigensolvers for symmetric tridiagonal chains, batched over a chunk of
grid points, which the structured solvers of the two model Hamiltonians
(``spectra.solve_rabi``, ``spectra.solve_rwa``), the sweep tables of
``experiments.run_sweep`` and the truncation ladder of
``experiments.convergence_study`` are built from.

The chain kernels work on arrays over a chunk of grid points at once:
Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967))
for the lowest K eigenvalues of each chain, inverse iteration for their
eigenvectors, then each point's worst residual and the sign convention
(each eigenvector's largest component positive).  Every point keeps its own
spectral radius, so a point's bits do not depend on the chunk it is solved
in, nor on K.  The row recurrences of bisection and inverse iteration hold
the chain's row index on a leading axis, so each step down the chain is a
couple of numpy calls over every point, chain and level at once.  No chain
kernel calls BLAS: their bits do not depend on the kernel OpenBLAS picks for
the CPU.  ``_rotations`` gives the closed-form rotations of 2x2 blocks.
``_Chains`` is the one place that turns a solve into each point's residual,
threshold and ``EigenSystem`` sort order, and ``_point_system`` turns one
point of complete chains into a sorted ``EigenSystem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import NonConvergence, ValidationError
from .model import FockBasis, Parity
from .observables import _row_sums

#: Default bound on the worst eigenpair residual, relative to the Frobenius
#: norm of the Hamiltonian.
DEFAULT_TOL = 1e-12

#: Inverse-iteration steps per eigenvector.  The shifts come from bisection
#: to full precision, so one step already amplifies the wanted eigenvector by
#: ~1/eps; the second removes what the first solve left of the start vector
#: (one step leaves residuals near 5e-12 ||H||, two reach the rounding floor).
INVERSE_STEPS = 2

#: Eigenvalues of one chain closer than this fraction of the spectral radius
#: are re-orthogonalized as a cluster during inverse iteration (the rule of
#: LAPACK's dstein).
_CLUSTER_GAP = 1e-3

#: Start vectors a cluster member gets after its first when it keeps less
#: than ``_KEPT`` of its norm against the lower members.
_RESTARTS = 3

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

#: Fraction of its norm a cluster member must keep when it is projected
#: against the lower members of its cluster.
_KEPT = math.sqrt(_EPS)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted orthonormal eigenpairs of a model Hamiltonian.

    ``eigenvalues`` is ascending and ``eigenvectors[:, k]`` is the unit
    eigenvector of ``eigenvalues[k]``; exact ties are ordered EVEN before
    ODD, then by the row of each eigenvector's largest component, which is
    positive.  ``parities[k]`` is the EVEN/ODD sector eigenvector k lies in,
    known by construction, and ``residual`` is the worst eigenpair residual
    ||Hv - Ev||.

    ``labels`` names each eigenvector by symmetry, with the same integer
    for the same state at every coupling, so sweeps track states by label.
    Labels are a permutation of 0..dim-1: ``2 * rank + (0 even, 1 odd)``
    for the full model, where rank counts upward within the parity chain,
    and for the RWA ``2n - 1`` and ``2n`` for the minus and plus branch of
    excitation block n, with 0 for |g,0> and ``dim - 1`` for |e,n_max>.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: tuple[Parity, ...]
    residual: float
    labels: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def _rotations(
    app: np.ndarray, aqq: np.ndarray, apq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Jacobi rotations (t, c, s) that annihilate ``apq`` in the 2x2
    blocks [[app, apq], [apq, aqq]], for every broadcast triple at once.

    The rotated diagonal is (app - t*apq, aqq + t*apq), with eigenvectors
    (c, -s) and (s, c) over (p, q).  t is the smaller-angle root of
    t^2 + 2t*theta - 1 = 0, with theta = 0.5 * (aqq - app) / apq:
    t = sign / (|theta| + hypot(theta, 1)), c = 1 / sqrt(t*t + 1) and
    s = t*c, each block with the bits of this scalar formula evaluated in
    that order.  Where ``apq`` is 0 the block is left as it is,
    (t, c, s) = (0, 1, 0).  The sign comes from ``theta >= 0`` (so -0.0
    gives +1), and ``math.hypot`` runs on each theta, since ``np.hypot`` may
    differ from it in the last bit.  A NaN theta gives t, c and s the
    default quiet NaN: IEEE 754 leaves open which payload an operation on
    two NaNs keeps, and numpy's loops and CPython's float arithmetic keep
    different ones, so the formula alone does not fix those bits.
    """
    # uncoupled blocks divide by zero, and are then reset
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = 0.5 * (aqq - app) / apq
        hypot = np.fromiter(map(math.hypot, theta.ravel().tolist(), repeat(1.0)), float)
        t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + hypot.reshape(theta.shape))
        t = np.where(theta == theta, t, np.nan)
        c = 1.0 / np.sqrt(t * t + 1.0)
    coupled = apq != 0.0
    t = np.where(coupled, t, 0.0)
    c = np.where(coupled, c, 1.0)
    return t, c, t * c


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol!r}")


def _radius(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """A bound on the spectral radius of each chain, shaped (..., 1), over
    its finite rows: rows padded with an infinite diagonal (and zero
    off-diagonals) are not part of the chain."""
    return np.max(
        np.abs(diag), axis=-1, keepdims=True, where=diag < np.inf, initial=0.0
    ) + 2.0 * np.max(np.abs(off), axis=-1, keepdims=True, initial=0.0)


def _rows_first(a: np.ndarray, ndim: int) -> np.ndarray:
    """A view of chain rows ``a`` (..., n) as (n, ..., 1), with axes of
    length 1 in front of ``...`` so that it broadcasts against lanes of
    ``ndim`` axes."""
    return np.moveaxis(a[(None,) * (ndim - a.ndim)], -1, 0)[..., None]


def _bisect(diag: np.ndarray, off: np.ndarray, levels: int) -> np.ndarray:
    """The lowest ``levels`` eigenvalues of symmetric tridiagonal chains,
    ascending, by bisection.

    ``diag`` (..., m) and ``off`` (..., m-1) broadcast against each other;
    the brackets form lanes (..., levels).  Each eigenvalue's bracket is
    halved until it spans at most two ulps of its chain's spectral radius;
    a bracket stops moving once it is that narrow, so an eigenvalue does
    not depend on what else is batched with it, nor on how many levels are
    asked for.  The count of eigenvalues below a shift x is the number of
    negative pivots of the LDL^T factorization of T - x (Sturm count).  A
    zero or tiny pivot makes the next pivot -inf, which counts it as an
    infinitesimal positive one; ``off2`` is kept positive so that no 0/0
    arises.

    The pivots of a halving are held rows first, in one (m, ..., levels)
    buffer allocated once per call, and the diagonal and the squared
    off-diagonals are broadcast once to the same layout: the shift is one
    contiguous subtract, each row of the recurrence is one divide and one
    subtract over all lanes, the negative pivots are counted once per
    halving, and the brackets are updated in place.  The three arrays hold
    3m - 1 rows of the lanes' size; ``spectra._rabi_chunks`` bounds them by
    bisecting a large grid chunk by chunk.

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
    m = diag.shape[-1]
    # contiguous, like off2 below: subtracting from the chains' own (m, 1,
    # c, 1) diagonal makes numpy's inner loop only ``levels`` long
    shifted = np.ascontiguousarray(np.broadcast_to(_rows_first(diag, hi.ndim), (m, *hi.shape)))
    q = np.empty((m, *hi.shape))
    t = np.empty(hi.shape)
    # holds the count of negative pivots, at most m
    count = np.min_scalar_type(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        off2 = _rows_first(off * off + _TINY, hi.ndim)
        # contiguous: dividing by a broadcast operand is several times slower
        off2 = np.ascontiguousarray(np.broadcast_to(off2, (m - 1, *hi.shape)))
        steps = list(zip(off2, q[:-1], q[1:]))
        while (active := hi - lo > bound).any():
            mid = 0.5 * (lo + hi)
            # out by position: as a keyword it makes a pass on small lanes
            # (the converge ladder's 126) ~25 % slower
            np.subtract(shifted, mid, q)
            for o, previous, row in steps:
                np.divide(o, previous, t)
                np.subtract(row, t, row)
            # q < 0, not the sign bit: -0.0 and NaN pivots do not count
            above = np.less(q, 0).sum(axis=0, dtype=count) > index
            np.copyto(hi, mid, where=active & above)
            np.copyto(lo, mid, where=active & ~above)
    return 0.5 * (lo + hi)


def _start_vector(m: int, level: int, attempt: int) -> np.ndarray:
    """A restart vector of ``m`` entries in [-1/2, 1/2), the splitmix64
    finalizer of (row, level, attempt): unlike the affine hash of
    ``_inverse_iteration``, no two levels' vectors differ by a constant."""
    z = np.arange(m, dtype=np.uint64) + np.uint64((attempt << 42) + (level << 21))
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def _project(cluster: np.ndarray, w: np.ndarray) -> bool:
    """Gram-Schmidt ``w`` twice against the columns of ``cluster`` in place
    and normalize it; whether it lost its direction, keeping less than
    ``_KEPT`` of its norm (never for a non-finite ``w``, which no restart
    mends, since its factorization overflowed too)."""
    before = math.sqrt(_row_sums(w * w))
    for _ in range(2):
        # cluster @ (cluster.T @ w): over rows, then over members
        w -= _row_sums((cluster * _row_sums(cluster * w[:, None])).T)
    norm = math.sqrt(_row_sums(w * w))
    w /= norm
    return norm < _KEPT * before


def _solve_step(w: np.ndarray, mult: np.ndarray, piv: np.ndarray) -> None:
    """One inverse-iteration step on one vector ``w`` in place, with its
    shift's factorization (``mult``, ``piv``) from ``_inverse_iteration``,
    then normalization."""
    for i in range(1, w.size):
        w[i] -= mult[i - 1] * w[i - 1]
    w /= piv
    for i in range(w.size - 2, -1, -1):
        w[i] -= mult[i] * w[i + 1]
    w /= math.sqrt(_row_sums(w * w))


def _orthogonalize_clusters(
    v: np.ndarray, close: np.ndarray, mult: np.ndarray, piv: np.ndarray
) -> None:
    """Gram-Schmidt each eigenvector ``v[:, i, s, k + 1]`` of (m, p, c, K)
    in place against the lower members of its cluster, where ``close``
    (p, c, K-1) marks eigenvalue k + 1 close to k.

    A member that keeps less than ``_KEPT`` of its norm lay in the span of
    the lower members, and what is left is little more than rounding noise.
    It restarts from ``_start_vector``, then each of ``INVERSE_STEPS``
    projects it and takes one step with the factorization ``mult``
    (m-1, p, c, K) and ``piv`` (m, p, c, K) of its shift, up to
    ``_RESTARTS`` times.  A member that passes keeps its bits.  Only the
    rows before a chain's padding (its trailing rows of infinite pivot, see
    ``_inverse_iteration``) take part, where the vectors are exactly 0, so
    a padded chain keeps the bits of the unpadded one.

    Each projection and norm adds its terms one at a time in a fixed order
    (the rule of ``observables``), so a vector's bits depend neither on the
    layout of ``v`` nor on the BLAS kernel.
    """
    for point, s, k in zip(*np.nonzero(close)):
        first = k
        while first > 0 and close[point, s, first - 1]:
            first -= 1
        end = len(piv) - int(np.argmax(piv[::-1, point, s, k + 1] < np.inf))
        cluster = v[:end, point, s, first : k + 1]
        lane = (slice(end), point, s, k + 1)
        w = v[lane]
        attempt = 0
        while _project(cluster, w) and attempt < _RESTARTS:
            attempt += 1
            w[:] = _start_vector(w.size, k + 1, attempt)
            for _ in range(INVERSE_STEPS):
                _project(cluster, w)
                _solve_step(w, mult[lane], piv[lane])


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of chains over a chunk of grid points.

    ``diag`` is the chains' diagonal, shared (c, m) or per point (p, c, m),
    ``off`` (p, c, m-1) holds each point's off-diagonals and ``values``
    (p, c, K) the lowest K eigenvalues of each chain, ascending; the result
    is (m, p, c, K) with ``[:, i, s, k]`` the eigenvector of
    ``values[i, s, k]``.  A chain may be padded past its end with rows of
    diagonal +inf and off-diagonal 0, as in ``_bisect``: its eigenvectors
    are exactly 0 there and keep the bits of the unpadded chain's.  A NaN
    value gives a NaN column and clusters with no other.  All shifts run at
    once: T - value = L D L^T is factored once (pivots below eps times the
    point's spectral radius are raised to it), then each step solves with
    it and normalizes.  The factorization and the substitutions run rows
    first, one row of every point, chain and shift per numpy call, into
    buffers allocated once.  Eigenvalues closer than ``_CLUSTER_GAP`` of
    that radius are Gram-Schmidt orthogonalized against the lower members
    of their cluster after every step, as in LAPACK's dstein, which also
    separates exact ties; a member that the projection leaves without a
    direction of its own restarts from a fresh start vector
    (``_orthogonalize_clusters``).  Every operation acts on one point and
    one eigenvector at a time, so a column's bits depend neither on the
    chunk nor on K.  Iterates that overflow leave non-finite vectors, which
    the residual check rejects.
    """
    m = diag.shape[-1]
    radius = np.max(_radius(diag, off), axis=1, keepdims=True)
    floor = _EPS * radius
    # row-major working layout: [row i, point, chain, eigenvalue k]
    piv = _rows_first(diag, values.ndim) - values
    off = off.transpose(2, 0, 1)[..., None]
    close = values[..., 1:] - values[..., :-1] <= _CLUSTER_GAP * radius
    # Generic, distinct start vectors per eigenvalue (multiplicative hashing
    # of the position), so that tied shifts still produce independent
    # iterates for the cluster orthogonalization.
    key = np.arange(m)[:, None, None, None] * 7919 + np.arange(values.shape[-1]) * 104729 + 1
    v = (key * 2654435761 % 2**32) / 2.0**32 - 0.5 + np.zeros((*values.shape[:2], 1))
    t = np.empty(values.shape)
    small = np.empty(values.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        off2 = off * off
        for i, row in enumerate(piv):
            np.less(np.abs(row, t), floor, small)
            np.copyto(row, floor, where=small)
            if i < m - 1:
                np.divide(off2[i], row, t)
                np.subtract(piv[i + 1], t, piv[i + 1])
        mult = off / piv[:-1]
        # (mult[i], v[i], v[i + 1]) for i = 0 .. m-2
        steps = list(zip(mult, v[:-1], v[1:]))
        for _ in range(INVERSE_STEPS):
            for factor, previous, row in steps:
                np.multiply(factor, previous, t)
                np.subtract(row, t, row)
            v /= piv
            for factor, row, following in reversed(steps):
                np.multiply(factor, following, t)
                np.subtract(row, t, row)
            v /= np.sqrt(np.sum(v * v, axis=0))
            _orthogonalize_clusters(v, close, mult, piv)
    return v


def _residuals(
    diag: np.ndarray, off: np.ndarray, values: np.ndarray, v: np.ndarray, lanes: np.ndarray
) -> np.ndarray:
    """Each point's worst eigenpair residual ``||Hv - Ev||`` (p,) over the
    ``lanes`` that broadcast against ``values`` (p, c, K), for unit
    eigenvectors ``v`` (m, p, c, K) of chains with diagonal ``diag``, shared
    (c, m) or per point (p, c, m), and off-diagonals ``off`` (p, c, m-1).
    Padded rows where ``diag``, ``off`` and ``v`` are all 0 add only zeros
    to a lane's sum, and lanes outside ``lanes`` are ignored, so a padded
    chain keeps the bits of the unpadded one."""
    # entries past the float range leave inf and nan residuals, which
    # _check_residuals rejects
    with np.errstate(over="ignore", invalid="ignore"):
        offs = off.transpose(2, 0, 1)[..., None]
        r = (_rows_first(diag, values.ndim) - values) * v
        r[1:] += offs * v[:-1]
        r[:-1] += offs * v[1:]
        return np.sqrt(np.max(np.sum(r * r, axis=0), axis=(1, 2), where=lanes, initial=0.0))


class _Chains:
    """Eigenpairs of the chains (c, L) of basis states ``rows`` of ``basis``
    at each point of a chunk of the coupling grid, from the eigenvalues
    ``values`` (p, c, K), ascending along each chain, and unit eigenvectors
    ``v`` (L, p, c, K) of chains with diagonal ``diag`` (c, L) and
    off-diagonals ``off`` (p, c, L-1).  Point i's chains are their leading
    ``sizes[i]`` rows: past them ``off`` is 0, as is ``v`` in each level
    k < sizes[i], and the levels k >= sizes[i] are ignored.

    ``vectors`` are ``v`` with each column's largest component made
    positive, and ``dominant`` (p, c, K) is that component's basis index.
    ``labels`` (c, K) names each chain column (see ``EigenSystem``).
    ``odd`` (p, c * K) marks the chain-major columns whose dominant basis
    state is ODD, and ``order`` (p, c * K) lists them in ``EigenSystem``
    order: by eigenvalue, exact ties EVEN before ODD, then by ``dominant``;
    both are computed on first use (the converge ladder sorts only its
    values, which spares it a first ``lexsort`` and ~0.2 MB of peak RSS).
    ``residual`` (p,) is each point's worst eigenpair residual
    ``||Hv - Ev||`` and ``threshold`` (p,) its ``tol * ||H||_F``, each over
    the point's own rows and lanes, with the bits of a solve of its chains
    alone.
    """

    def __init__(self, basis, rows, labels, tol, diag, off, values, v, sizes):
        points, levels = len(off), values.shape[-1]
        inside = np.arange(diag.shape[-1]) < sizes[:, None, None]
        lanes = np.arange(levels) < sizes[:, None, None]
        self.residual = _residuals(np.where(inside, diag, 0.0), off, values, v, lanes)
        self.threshold = np.empty(points)
        # each size's norm sums its own rows, in the order of a solve of it alone
        for size in dict.fromkeys(sizes.tolist()):
            group = sizes == size
            d, o = diag[:, :size], off[group, :, : size - 1]
            with np.errstate(over="ignore", invalid="ignore"):
                squares = np.sum(d * d) + 2.0 * np.sum((o * o).reshape(len(o), -1), axis=1)
            self.threshold[group] = tol * np.sqrt(squares)
        top = np.argmax(np.abs(v), axis=0)
        point = np.arange(points)[:, None, None]
        chain = np.arange(len(diag))[:, None]
        lead = v[top, point, chain, np.arange(levels)]
        self.rows, self.labels, self.values = rows, labels, values
        self.vectors = v * np.where(lead < 0.0, -1.0, 1.0)
        self.dominant = rows[chain, top]
        self.basis = basis

    @cached_property
    def odd(self) -> np.ndarray:
        return self.basis.parity_signs[self.dominant.reshape(len(self.values), -1)] < 0

    @cached_property
    def order(self) -> np.ndarray:
        points = len(self.values)
        keys = (self.dominant.reshape(points, -1), self.odd, self.values.reshape(points, -1))
        return np.lexsort(keys, axis=-1)


def _check_residuals(lams: np.ndarray, *models: _Chains) -> None:
    """Raise NonConvergence at the first point of ``lams``, in grid order
    and then in argument order, where a model's residual exceeds its
    threshold."""
    residual = np.stack([chains.residual for chains in models], axis=1)
    threshold = np.stack([chains.threshold for chains in models], axis=1)
    failed = ~(residual <= threshold)
    if failed.any():
        first = np.unravel_index(np.argmax(failed), failed.shape)
        residual, threshold = residual[first], threshold[first]
        message = f"eigenvector residual {residual:.3e} above threshold {threshold:.3e}"
        raise NonConvergence(message, residual=float(residual), lam=float(lams[first[0]]))


def _point_system(basis: FockBasis, chains: _Chains, point: int) -> EigenSystem:
    """The read-only EigenSystem of one point of chains that hold every
    eigenpair, each vector written once into a dense matrix in chain-major
    column order, then sorted by ``chains.order``."""
    rows, labels = chains.rows, chains.labels
    vectors = np.zeros((basis.dim, basis.dim))
    columns = np.arange(labels.size).reshape(labels.shape)
    vectors[rows[:, :, None], columns[:, None]] = chains.vectors[:, point].transpose(1, 0, 2)
    order = chains.order[point]
    values = chains.values[point].ravel()[order]
    vectors, labels = vectors[:, order], labels.ravel()[order]
    for array in (values, vectors, labels):
        array.setflags(write=False)
    parities = tuple(Parity.ODD if o else Parity.EVEN for o in chains.odd[point, order].tolist())
    return EigenSystem(values, vectors, parities, float(chains.residual[point]), labels)

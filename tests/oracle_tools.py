"""Independent reference routes used by the tests.

Everything here deliberately avoids the library's own solvers so that
numerical assertions compare two unrelated computations: eigenvalue counts
come from LDL^T inertia (scipy), bracketing from Gershgorin discs, the
extremal eigenvalue from plain bisection on the count function, and state
tracking across a sweep from eigenvector overlaps instead of the symmetry
labels the library tracks by.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from polariscope import EigenSystem, ValidationError

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

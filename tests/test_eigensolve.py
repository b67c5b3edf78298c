import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polariscope as ps
from polariscope import ModelParams, Parity, eigensolve, spectra

import oracle_tools

# Ground energy of the full Hamiltonian at omega1=0, omega2=1, omega_c=1,
# n_max=14, frozen from an independent LDL-inertia bisection (oracle_tools).
GROUND_ENERGY_LAM_1_0 = -0.1479457293143956
GROUND_ENERGY_LAM_0_5 = 0.3667057645383698
ORACLE_TOL = 1e-10


def _full_system(lam: float, n_max: int = 14):
    basis = ps.build_basis(n_max)
    h = ps.build_rabi_hamiltonian(ModelParams(lam=lam), basis)
    return basis, h


def _full_eig(lam: float, n_max: int = 14):
    basis = ps.build_basis(n_max)
    return basis, ps.solve_rabi(ModelParams(lam=lam), basis)


def test_identity_matrix_ordering_and_vectors():
    eig = oracle_tools.diagonalize(np.eye(4))
    assert np.array_equal(eig.eigenvalues, np.ones(4))
    assert np.array_equal(eig.eigenvectors, np.eye(4))
    assert eig.sweeps == 0
    assert eig.parities is None


def test_identity_with_basis_orders_by_parity_then_position():
    basis = ps.build_basis(1)
    eig = oracle_tools.diagonalize(np.eye(4), basis)
    # all eigenvalues tie; even columns (0, 3) come before odd ones (1, 2)
    assert np.array_equal(eig.eigenvectors, np.eye(4)[:, [0, 3, 1, 2]])
    assert eig.parities == (Parity.EVEN, Parity.EVEN, Parity.ODD, Parity.ODD)


def test_2x2_off_diagonal():
    eig = oracle_tools.diagonalize(np.array([[0.0, 0.3], [0.3, 0.0]]))
    np.testing.assert_allclose(eig.eigenvalues, [-0.3, 0.3], atol=1e-15)
    # sign convention: the largest-magnitude component is positive, and the
    # 1/sqrt(2)-amplitude tie breaks at the lowest index
    assert eig.eigenvectors[0, 0] > 0
    assert eig.eigenvectors[0, 1] > 0
    a = np.array([[0.0, 0.3], [0.3, 0.0]])
    np.testing.assert_allclose(
        a @ eig.eigenvectors, eig.eigenvectors * eig.eigenvalues, atol=1e-15
    )


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200])
def test_tiny_and_huge_entries_are_diagonalized(scale):
    # unscaled, tol * ||A||_F and the off-diagonal norm both underflow to 0
    # for entries below ~1e-154, so Jacobi stopped at sweep 0 and returned
    # the diagonal, +-1 * scale instead of +-sqrt(5) * scale
    a = scale * np.array([[1.0, 2.0], [2.0, -1.0]])
    eig = oracle_tools.diagonalize(a)
    np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(a), rtol=1e-14, atol=0)
    assert eig.sweeps >= 1
    assert eig.residual <= 1e-12 * math.sqrt(10.0) * scale  # tol * ||A||_F


def test_diagonal_input_converges_immediately():
    eig = oracle_tools.diagonalize(np.diag([3.0, -1.0, 2.0]))
    assert eig.sweeps == 0
    assert np.array_equal(eig.eigenvalues, [-1.0, 2.0, 3.0])


def test_ground_energy_against_frozen_bisection_oracle_lam_1_0():
    _, h = _full_system(1.0)
    _, eig = _full_eig(1.0)
    assert abs(eig.eigenvalues[0] - GROUND_ENERGY_LAM_1_0) <= ORACLE_TOL
    # same value re-derived right now through the independent inertia route
    assert abs(oracle_tools.smallest_eigenvalue(h) - GROUND_ENERGY_LAM_1_0) <= ORACLE_TOL
    assert eig.eigenvalues[0] < 0.5


def test_ground_energy_against_frozen_bisection_oracle_lam_0_5():
    _, h = _full_system(0.5)
    _, eig = _full_eig(0.5)
    assert abs(eig.eigenvalues[0] - GROUND_ENERGY_LAM_0_5) <= ORACLE_TOL
    assert abs(oracle_tools.smallest_eigenvalue(h) - GROUND_ENERGY_LAM_0_5) <= ORACLE_TOL


def test_ground_energy_monotone_decrease_in_lambda():
    energies = []
    for lam in np.linspace(0.0, 1.2, 13):
        energies.append(_full_eig(float(lam), n_max=10)[1].eigenvalues[0])
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert energies[0] == 0.5


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 33])
def test_random_symmetric_matches_lapack(dim):
    rng = np.random.default_rng(1234 + dim)
    a = rng.standard_normal((dim, dim))
    a = (a + a.T) / 2.0
    eig = oracle_tools.diagonalize(a)
    scale = np.linalg.norm(a)
    np.testing.assert_allclose(
        eig.eigenvalues, oracle_tools.reference_spectrum(a), atol=1e-12 * max(scale, 1)
    )
    gram = eig.eigenvectors.T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
    assert np.max(np.abs(recon - a)) <= 1e-9 * scale


@pytest.mark.parametrize("lam,n_max", [(0.5, 14), (1.0, 14), (1.0, 63), (1.5, 30)])
def test_model_reconstruction_orthonormality_residual(lam, n_max):
    basis, h = _full_system(lam, n_max)
    eig = ps.solve_rabi(ModelParams(lam=lam), basis)
    dim = basis.dim
    fro = np.linalg.norm(h)
    v, w = eig.eigenvectors, eig.eigenvalues
    assert np.max(np.abs(v.T @ v - np.eye(dim))) <= 1e-10
    assert np.linalg.norm(v @ np.diag(w) @ v.T - h) <= 1e-9 * fro
    assert np.max(np.abs(h @ v - v * w)) <= 1e-10 * fro
    assert eig.residual <= 1e-12 * fro


def test_determinism_bit_identical():
    basis = ps.build_basis(14)
    first = ps.solve_rabi(ModelParams(lam=0.7), basis)
    second = ps.solve_rabi(ModelParams(lam=0.7), basis)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    assert first.parities == second.parities
    assert np.array_equal(first.labels, second.labels)


def test_sign_convention_largest_component_positive():
    basis, eig = _full_eig(0.9)
    for k in range(basis.dim):
        column = eig.eigenvectors[:, k]
        assert column[np.argmax(np.abs(column))] > 0


def test_degenerate_ordering_at_lambda_zero():
    _, eig = _full_eig(0.0, n_max=3)
    # exact degeneracies |e,n-1>, |g,n> resolve by parity rank (both equal)
    # then by largest-component position: |e,n-1> has the lower index
    assert np.array_equal(eig.eigenvalues, [0.5, 1.5, 1.5, 2.5, 2.5, 3.5, 3.5, 4.5])
    expected_columns = [0, 1, 2, 3, 4, 5, 6, 7]
    assert np.array_equal(eig.eigenvectors, np.eye(8)[:, expected_columns])


def test_output_arrays_read_only():
    basis = ps.build_basis(1)
    for eig in (ps.solve_rabi(ModelParams(lam=0.3), basis), ps.solve_rwa(ModelParams(), basis)):
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 9.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            eig.labels[0] = 9


def test_nonconvergence_raises_with_residual():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ps.NonConvergence) as info:
        oracle_tools.diagonalize(a, max_sweeps=0)
    assert info.value.residual > 0


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # not symmetric
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # not finite
        np.zeros((2, 3)),  # not square
        np.zeros(3),  # not 2-D
    ],
)
def test_validation_rejects_bad_matrices(matrix):
    with pytest.raises(ps.ValidationError):
        oracle_tools.diagonalize(matrix)


def test_parity_purity_of_full_hamiltonian_eigenvectors():
    # each eigenvector lies in the sector of its tag: every amplitude on
    # the other sector is exactly 0.0
    for lam in (0.1, 0.5, 1.2):
        basis, eig = _full_eig(lam, n_max=8)
        counts = {p: eig.parities.count(p) for p in (Parity.EVEN, Parity.ODD)}
        assert counts[Parity.EVEN] == counts[Parity.ODD] == basis.dim // 2
        even = basis.parity_signs > 0
        for k, parity in enumerate(eig.parities):
            assert np.all(eig.eigenvectors[~even if parity is Parity.EVEN else even, k] == 0.0)


def test_parity_blocks_nmax1_entries():
    basis = ps.build_basis(1)
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.1), basis)
    even, odd, perm = oracle_tools.parity_blocks(h, basis)
    assert np.array_equal(even, [[0.5, 0.1], [0.1, 2.5]])
    assert np.array_equal(odd, [[1.5, 0.1], [0.1, 1.5]])
    assert np.array_equal(perm, [0, 3, 1, 2])


def test_parity_blocks_exact_reassembly():
    basis = ps.build_basis(6)
    h = ps.build_rabi_hamiltonian(ModelParams(omega2=1.2, lam=0.8), basis)
    even, odd, perm = oracle_tools.parity_blocks(h, basis)
    permuted = h[np.ix_(perm, perm)]
    k = even.shape[0]
    assert np.array_equal(permuted[:k, :k], even)
    assert np.array_equal(permuted[k:, k:], odd)
    assert np.all(permuted[:k, k:] == 0.0)
    assert np.all(permuted[k:, :k] == 0.0)


def test_parity_blocks_spectrum_multiset_matches_direct(basis14):
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.5), basis14)
    even, odd, _ = oracle_tools.parity_blocks(h, basis14)
    combined = np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
    direct = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(combined, direct, atol=1e-10)


def test_parity_blocks_raise_on_leak():
    basis = ps.build_basis(2)
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.3), basis)
    h = h.copy()
    i = 2 * 0  # |g,0>, even
    j = 2 * 0 + 1  # |e,0>, odd
    h[i, j] = h[j, i] = 1e-13
    with pytest.raises(oracle_tools.BlockLeak):
        oracle_tools.parity_blocks(h, basis)


def test_jacobi_never_mixes_parity_blocks(basis14):
    # zero couplings are never rotated, so eigenvectors stay exactly pure:
    # every cross-parity amplitude is identically 0.0
    h = ps.build_rabi_hamiltonian(ModelParams(lam=1.0), basis14)
    eig = oracle_tools.diagonalize(h, basis14)
    signs = basis14.parity_signs
    for k in range(basis14.dim):
        column = eig.eigenvectors[:, k]
        dominant = np.sign(signs[np.argmax(np.abs(column))])
        assert np.all(column[signs != dominant] == 0.0)


def _order_agrees(a: ps.EigenSystem, b: ps.EigenSystem, atol: float) -> bool:
    """Same parity sequence, except that levels closer than atol (whose
    order only rounding decides) may come in either order."""
    w = a.eigenvalues
    cuts = np.r_[0, np.flatnonzero(np.diff(w) > atol) + 1, w.size]
    return all(
        sorted(p.value for p in a.parities[lo:hi])
        == sorted(p.value for p in b.parities[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


_ENERGY = st.floats(min_value=0.0, max_value=3.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega1=_ENERGY,
    omega2=_ENERGY,
    omega_c=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    lam=_ENERGY,
    n_max=st.sampled_from([0, 1, 2, 14, 40]),
)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=0.0, n_max=14)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=1e-9, n_max=14)
@example(omega1=0.0, omega2=1.0, omega_c=4e-194, lam=1.0, n_max=0)
def test_structured_solvers_match_jacobi_and_lapack(omega1, omega2, omega_c, lam, n_max):
    assume(omega2 > omega1)
    # energies below ~1e-138 overflow the structured solvers' inverse
    # iteration, which then raises NonConvergence (README, Tolerance)
    assume(omega2 + omega_c > 1e-100)
    params = ModelParams(omega1=omega1, omega2=omega2, omega_c=omega_c, lam=lam)
    basis = ps.build_basis(n_max)
    even = basis.parity_signs > 0
    for build, solve in (
        (ps.build_rabi_hamiltonian, ps.solve_rabi),
        (ps.build_rwa_hamiltonian, ps.solve_rwa),
    ):
        h = build(params, basis)
        atol = 1e-12 * np.linalg.norm(h)
        eig = solve(params, basis)
        jacobi = oracle_tools.diagonalize(h, basis)
        v, w = eig.eigenvectors, eig.eigenvalues
        assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= atol
        assert np.max(np.abs(w - jacobi.eigenvalues)) <= atol
        assert np.max(np.abs(v.T @ v - np.eye(basis.dim))) <= 1e-12
        assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= atol
        assert eig.residual <= atol
        for k, parity in enumerate(eig.parities):
            assert not np.any(v[~even if parity is Parity.EVEN else even, k])
        assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(basis.dim)] > 0)
        assert _order_agrees(eig, jacobi, atol)
        assert np.array_equal(np.sort(eig.labels), np.arange(basis.dim))
        if lam == 0.0 or (build is ps.build_rwa_hamiltonian and jacobi.sweeps > 0):
            # no rotation at lam = 0; once Jacobi sweeps the RWA at all, it
            # applies exactly one rotation per block
            assert np.array_equal(w, jacobi.eigenvalues)
            assert np.array_equal(v, jacobi.eigenvectors)
            assert eig.parities == jacobi.parities


@pytest.mark.parametrize(
    "omega2, lam, n_max, ties",
    [
        (1.0, 0.5, 14, 0),
        (0.8, 0.9, 10, 0),
        (1.2, 0.4, 30, 0),  # the even/odd crossing of levels 2 and 3, 2e-15 apart
        (1.0, 0.0, 4, 0),  # same-parity ties |g,n+1>, |e,n>
        (2.0, 0.0, 6, 10),  # even/odd ties |g,n+2>, |e,n>, five in each model
        # RWA: |g,0> with block 1's minus, block 1's plus with block 4's minus
        (1.0, 1.0, 8, 2),
        # RWA: four even/odd crossings, block 1's minus with block 4's among them
        (1.0, 3.0, 30, 4),
    ],
)
def test_order_parities_and_labels_match_a_lapack_oracle(omega2, lam, n_max, ties):
    # the oracle sorts LAPACK's eigenpairs in plain Python, so a change to
    # the keys of _Chains.order shows even where every other reference sorts
    # through it; positions whose values are near but not exactly tied
    # are compared as sets
    params, basis = ModelParams(omega2=omega2, lam=lam), ps.build_basis(n_max)
    exact_ties = 0
    for build, solve in (
        (ps.build_rabi_hamiltonian, ps.solve_rabi),
        (ps.build_rwa_hamiltonian, ps.solve_rwa),
    ):
        h = build(params, basis)
        tol = 1e-12 * np.linalg.norm(h)
        eig = solve(params, basis)
        states = oracle_tools.lapack_order(h, basis, build is ps.build_rwa_hamiltonian, tol)
        values = np.array([state.value for state in states])
        assert np.max(np.abs(eig.eigenvalues - values)) <= tol
        for group in sorted({state.group for state in states}):
            run = [k for k, state in enumerate(states) if state.group == group]
            expected = [(states[k].parity, states[k].label) for k in run]
            solved = [(eig.parities[k], int(eig.labels[k])) for k in run]
            if len(set(eig.eigenvalues[run].tolist())) == 1:
                assert solved == expected
                exact_ties += len({parity for parity, _ in expected}) - 1
            else:
                assert sorted(solved, key=str) == sorted(expected, key=str)
    assert exact_ties == ties


def test_rabi_labels_are_parity_and_rank():
    basis = ps.build_basis(6)
    eig = ps.solve_rabi(ModelParams(omega2=1.3, lam=0.9), basis)
    for parity, bit in ((Parity.EVEN, 0), (Parity.ODD, 1)):
        positions = [k for k, p in enumerate(eig.parities) if p is parity]
        assert np.array_equal(eig.labels[positions], 2 * np.arange(7) + bit)


def test_rabi_lambda_zero_ties_rank_the_photon_richer_state_lower():
    # at resonance |e,n-1> and |g,n> tie at lam = 0; a small coupling puts
    # the |g,n>-dominated polariton lower, so |g,n> takes the lower rank
    basis = ps.build_basis(3)
    eig = ps.solve_rabi(ModelParams(lam=0.0), basis)
    assert np.array_equal(eig.eigenvectors, np.eye(8))
    # columns |g,0>, |e,0>, |g,1>, |e,1>, |g,2>, |e,2>, |g,3>, |e,3>
    assert np.array_equal(eig.labels, [0, 3, 1, 4, 2, 7, 5, 6])
    assert eig.residual == 0.0


def test_rwa_labels_are_block_and_branch():
    basis = ps.build_basis(4)
    for omega2, swapped in ((1.0, False), (0.8, False), (1.2, True)):
        eig = ps.solve_rwa(ModelParams(omega2=omega2, lam=0.3), basis)
        block = np.rint(basis.excitations @ eig.eigenvectors**2)
        assert np.array_equal(block, (eig.labels + 1) // 2)
        position = np.argsort(eig.labels)
        for n in range(1, 5):
            assert eig.eigenvalues[position[2 * n - 1]] < eig.eigenvalues[position[2 * n]]
        # the minus branch at lam = 0 is the lower bare state of each block
        bare = ps.solve_rwa(ModelParams(omega2=omega2), basis)
        minus = np.flatnonzero(bare.labels == 1)[0]
        assert np.argmax(bare.eigenvectors[:, minus]) == (2 if swapped else 1)


_COUPLINGS = st.lists(
    st.one_of(st.just(0.0), st.just(1e-9), st.floats(min_value=0.0, max_value=2.0)),
    min_size=1,
    max_size=9,
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_max=st.integers(min_value=0, max_value=9),
    omega2=st.sampled_from([0.8, 1.0, 1.2, 2.5]),
    lams=_COUPLINGS,
    chunk_bytes=st.sampled_from([1, 2**10, 2**17]),
)
@example(n_max=8, omega2=1.1, lams=list(np.linspace(0.0, 1.5, 7)), chunk_bytes=2**17)
@example(n_max=6, omega2=1.0, lams=[0.0, 1e-9, 0.4, 0.0, 1.2], chunk_bytes=1)
def test_rabi_chunks_match_single_point_solves(n_max, omega2, lams, chunk_bytes):
    # run_sweep inverse-iterates its grid in chunks of points (a single point
    # per chunk at chunk_bytes=1); each point keeps its own spectral radius,
    # so chunking changes no bit, at lam = 0 and in tight clusters (lam = 1e-9)
    basis = ps.build_basis(n_max)
    base = ModelParams(omega2=omega2)
    m = n_max + 1
    with mock.patch.object(spectra, "_CHUNK_BYTES", chunk_bytes):
        chunks = list(spectra._rabi_chunks(base, np.array(lams), basis, m, 1e-12))
    systems = [
        eigensolve._point_system(basis, chains, point)
        for _, chains in chunks
        for point in range(chains.residual.size)
    ]
    assert len(systems) == len(lams)
    for lam, eig in zip(lams, systems):
        single = ps.solve_rabi(base.with_lambda(lam), basis)
        for name in ("eigenvalues", "eigenvectors", "labels"):
            assert getattr(eig, name).tobytes() == getattr(single, name).tobytes()
        assert eig.parities == single.parities
        assert eig.residual == single.residual


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_max=st.integers(min_value=1, max_value=9),
    levels=st.integers(min_value=2, max_value=10),
    omega2=st.sampled_from([0.8, 1.0, 1.2, 2.5]),
    lams=_COUPLINGS,
)
@example(n_max=14, levels=8, omega2=1.0, lams=[0.0, 1e-9, 0.5, 1.2])
def test_lowest_levels_agree_with_the_full_solve(n_max, levels, omega2, lams):
    # a sweep solves only the lowest K levels of each parity chain: those
    # columns keep the bits of the full solve, and the lowest K levels of the
    # whole spectrum, sorted as an EigenSystem sorts them, lie among them
    levels = min(levels, n_max + 1)
    basis = ps.build_basis(n_max)
    base = ModelParams(omega2=omega2)
    lams = np.array(lams)
    [(_, part)] = spectra._rabi_chunks(base, lams, basis, levels, 1e-12)
    [(_, full)] = spectra._rabi_chunks(base, lams, basis, n_max + 1, 1e-12)
    for name in ("values", "vectors", "dominant"):
        shared = getattr(full, name)[..., :levels]
        assert getattr(part, name).tobytes() == np.ascontiguousarray(shared).tobytes()
    assert np.array_equal(part.labels, full.labels[:, :levels])
    assert np.all(part.residual <= full.residual)
    for point, lam in enumerate(lams):
        eig = ps.solve_rabi(base.with_lambda(lam), basis)
        dominant = part.dominant[point].ravel()
        order = np.lexsort(
            (dominant, basis.parity_signs[dominant] < 0, part.values[point].ravel())
        )
        assert np.array_equal(part.labels.ravel()[order[:levels]], eig.labels[:levels])


_INTEGER_CHAIN = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m),
        st.lists(st.integers(min_value=0, max_value=3), min_size=m - 1, max_size=m - 1),
    )
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    chains=st.lists(_INTEGER_CHAIN, min_size=1, max_size=4),
    scale=st.sampled_from([1.0, 0.3, 1e-140]),
)
@example(chains=[([1, 1], [1]), ([2], [])], scale=1.0)
def test_bisect_on_inf_padded_chains_equals_unpadded(chains, scale):
    # chains of different lengths batched as one array, each padded past
    # its end with diagonal +inf and off-diagonal 0; integer entries put
    # bisection midpoints on exact zero pivots, so the padding meets
    # inf - inf, silently
    width = 1 + max(len(d) for d, _ in chains)
    levels = min(len(d) for d, _ in chains)
    diag = np.full((len(chains), width), np.inf)
    off = np.zeros((len(chains), width - 1))
    for row, (d, o) in enumerate(chains):
        diag[row, : len(d)] = np.multiply(d, scale)
        off[row, : len(o)] = np.multiply(o, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded = eigensolve._bisect(diag, off, levels)
    for row, (d, o) in enumerate(chains):
        alone = eigensolve._bisect(np.multiply(d, scale), np.multiply(o, scale), levels)
        assert padded[row].tobytes() == alone.tobytes()


@st.composite
def _integer_batches(draw):
    """Integer chains (c, m) with off-diagonals (p, c, m-1) and a length
    per point, which the ladder layout pads past with diagonal +inf."""
    m = draw(st.integers(min_value=1, max_value=9))
    c = draw(st.integers(min_value=1, max_value=2))
    p = draw(st.integers(min_value=1, max_value=3))
    entries = st.integers(min_value=-4, max_value=4)
    diag = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=c, max_size=c))
    couplings = st.lists(st.integers(min_value=0, max_value=3), min_size=m - 1, max_size=m - 1)
    off = draw(st.lists(st.lists(couplings, min_size=c, max_size=c), min_size=p, max_size=p))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=m), min_size=p, max_size=p))
    return diag, off, sizes


_LONG_CHAIN = (
    [[i * 7 % 9 - 4 for i in range(260)]],
    [[[i % 4 for i in range(259)]]],
    [260],
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    batch=_integer_batches(),
    layout=st.sampled_from(["chain", "sweep", "ladder"]),
    scale=st.sampled_from([5e-324, 1e-140, 1.0, 1e300]),
    levels=st.integers(min_value=1, max_value=9),
)
@example(batch=([[2]], [[[]]], [1]), layout="sweep", scale=1.0, levels=1)
@example(batch=([[1, 1, 1], [0, 2, -1]], [[[0, 0], [0, 0]], [[1, 2], [0, 1]]], [3, 2]),
         layout="sweep", scale=1.0, levels=3)
@example(batch=([[1, 1, 1], [0, 2, -1]], [[[0, 0], [0, 0]], [[1, 2], [0, 1]]], [3, 2]),
         layout="ladder", scale=1.0, levels=3)
@example(batch=_LONG_CHAIN, layout="chain", scale=1.0, levels=260)
def test_rows_first_kernels_match_the_rowwise_reference(batch, layout, scale, levels):
    # the chain kernels run rows first with the same IEEE operations in the
    # same order as the row-at-a-time reference, so every bit agrees:
    # integer entries put midpoints on exact zero pivots, zero couplings
    # (lam = 0 lanes) leave off2 = tiny and subnormal quotients, scales
    # reach the subnormal and overflow ranges, the ladder layout meets
    # inf - inf, and a 260-row chain counts past 255 negative pivots
    diag, off, sizes = (np.array(part, dtype=float) for part in batch)
    diag, off = diag * scale, off * scale
    levels = min(levels, diag.shape[-1])
    if layout == "chain":
        diag, off = diag[0], off[0, 0]
    elif layout == "ladder":
        inside = np.arange(diag.shape[-1]) < sizes[:, None, None]
        diag = np.where(inside, diag, np.inf)
        off = np.where(inside[..., 1:], off, 0.0)
        levels = min(levels, int(sizes.min()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eigensolve._bisect(diag, off, levels)
        assert values.tobytes() == oracle_tools.rowwise_bisect(diag, off, levels).tobytes()
        # the contiguous shift and the in-place brackets keep its bits too
        assert values.tobytes() == oracle_tools.broadcast_bisect(diag, off, levels).tobytes()
        if layout == "chain":
            diag, off, values = diag[None], off[None, None], values[None, None]
        if layout != "ladder":
            vectors = eigensolve._inverse_iteration(diag, off, values)
            reference = oracle_tools.rowwise_inverse_iteration(diag, off, values)
            assert vectors.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "lams, n_max, levels",
    [(np.linspace(0.0, 1.2, 121), 14, 8), (np.array([0.01, 0.02, 0.03]), 60, 8)],
)
def test_rows_first_kernels_match_the_rowwise_reference_on_model_grids(lams, n_max, levels):
    # the default sweep grid, lam = 0 included, and a grid whose chains hold
    # clusters of close eigenvalues, which inverse iteration orthogonalizes
    _, diag, off = spectra._rabi_chain_arrays(ModelParams(), lams, ps.build_basis(n_max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eigensolve._bisect(diag, off, levels)
        assert values.tobytes() == oracle_tools.rowwise_bisect(diag, off, levels).tobytes()
        assert values.tobytes() == oracle_tools.broadcast_bisect(diag, off, levels).tobytes()
        vectors = eigensolve._inverse_iteration(diag, off, values)
    reference = oracle_tools.rowwise_inverse_iteration(diag, off, values)
    assert vectors.tobytes() == reference.tobytes()
    if n_max == 60:
        radius = np.max(eigensolve._radius(diag, off), axis=1, keepdims=True)
        assert np.any(np.diff(values) <= eigensolve._CLUSTER_GAP * radius)


@pytest.mark.parametrize("omega1, omega_c", [(0.0, 1.0), (0.3, 0.7)])
def test_chain_kernels_match_the_displaced_oscillator_at_zero_splitting(omega1, omega_c):
    # at omega2 = omega1 each parity chain is omega1 + omega_c (a^dag a + 1/2)
    # + lam (a + a^dag) over Fock rows j, a displaced oscillator (Casanova et
    # al., PRL 105, 263603 (2010)): its levels are omega1 + omega_c (n + 1/2)
    # - lam^2/omega_c at any lam, free of truncation, and its ground state's
    # photon distribution is Poisson with mean (lam/omega_c)^2.  ModelParams
    # needs omega2 > omega1, so the chains are built here
    m, levels = 121, 7
    lams = np.array([0.5, 1.0, 2.0, 3.0])
    j = np.arange(m)
    diag = np.stack([omega1 + omega_c * (j + 0.5)] * 2)
    off = lams[:, None, None] * np.broadcast_to(np.sqrt(np.arange(1.0, m)), (2, m - 1))
    values = eigensolve._bisect(diag, off, levels)
    exact = omega1 + omega_c * (np.arange(levels) + 0.5) - (lams**2 / omega_c)[:, None, None]
    assert np.max(np.abs(values - exact)) <= 1e-12
    ground = eigensolve._inverse_iteration(diag, off, values)[..., 0]
    mean = (lams / omega_c) ** 2
    poisson = np.exp(-mean) * np.cumprod(np.vstack([np.ones_like(mean), mean / j[1:, None]]), axis=0)
    assert np.max(np.abs(ground**2 - poisson[..., None])) <= 1e-14


def test_rabi_chunks_bisect_a_large_grid_in_pieces_within_the_budget():
    # bisection's rows-first arrays hold chain rows, so a grid past
    # _CHUNK_BYTES is solved chunk by chunk: the peak allocation of a pass
    # stays within a few budgets plus the grid's own off-diagonals (2.2
    # budgets here: a chunk's bisection arrays, then its inverse iteration),
    # and the chunks give the bits of one whole-grid bisection by the
    # broadcast reference
    params, basis, levels = ModelParams(), ps.build_basis(60), 8
    lams = np.linspace(0.0, 3.0, 401)
    _, diag, off = spectra._rabi_chain_arrays(params, lams, basis)
    whole_grid = (3 * basis.dim // 2 - 1) * off.shape[0] * 2 * levels * 8
    assert whole_grid > 4 * spectra._CHUNK_BYTES
    tracemalloc.start()
    try:
        chunks = spectra._rabi_chunks(params, lams, basis, levels, 1e-12)
        values = [chains.values for _, chains in chunks]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) > 4
    assert peak <= off.nbytes + 3 * spectra._CHUNK_BYTES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = oracle_tools.broadcast_bisect(diag, off, levels)
    pieces = np.concatenate(values)
    on = lams != 0.0
    assert pieces[on].tobytes() == whole[on].tobytes()


def test_bisect_matches_the_broadcast_reference_on_the_converge_ladder():
    # the stacked chains of _rabi_ladder for converge --n-max 63, padded
    # past each rung's end with an infinite diagonal
    rungs = [4, 6, 8, 10, 14, 20, 28, 40, 63]
    _, diag, off = spectra._rabi_chain_arrays(
        ModelParams(lam=1.0), np.array([1.0]), ps.build_basis(rungs[-1])
    )
    inside = np.arange(diag.shape[-1]) < (np.array(rungs) + 1)[:, None, None]
    diag, off = np.where(inside, diag, np.inf), np.where(inside[..., 1:], off, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eigensolve._bisect(diag, off, 7)
        reference = oracle_tools.broadcast_bisect(diag, off, 7)
    assert values.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "params, rungs, levels",
    [
        (ModelParams(lam=1.0), [5, 6, 8, 10, 14, 20, 28, 40, 63], 12),
        # clusters ~1e-200 wide, whose members restart from fresh vectors
        (ModelParams(omega_c=1e-200, lam=1e-100), [20, 28, 40, 63], 40),
    ],
)
def test_inverse_iteration_keeps_the_bits_of_each_padded_chain(params, rungs, levels):
    # per-point chains padded past their end with an infinite diagonal, and
    # lanes past a short chain's end set to NaN: every chain's vectors equal
    # those of the chain solved alone, and are exactly 0 on its padded rows
    _, diag, off = spectra._rabi_chain_arrays(
        params, np.array([params.lam]), ps.build_basis(rungs[-1])
    )
    sizes = np.array(rungs) + 1
    inside = np.arange(diag.shape[-1]) < sizes[:, None, None]
    padded_diag, padded_off = np.where(inside, diag, np.inf), np.where(inside[..., 1:], off, 0.0)
    values = eigensolve._bisect(padded_diag, padded_off, levels)
    np.copyto(values, np.nan, where=np.arange(levels) >= sizes[:, None, None])
    with mock.patch.object(
        eigensolve, "_start_vector", wraps=eigensolve._start_vector
    ) as start, warnings.catch_warnings():
        warnings.simplefilter("error")
        v = eigensolve._inverse_iteration(padded_diag, padded_off, values)
    assert start.called == (params.lam < 1e-50)
    for rung, size in enumerate(sizes):
        k = min(levels, size)
        alone = eigensolve._inverse_iteration(
            diag[:, :size], off[..., : size - 1], values[rung : rung + 1, :, :k]
        )
        assert v[:size, rung : rung + 1, :, :k].tobytes() == alone.tobytes()
        assert not v[size:, rung, :, :k].any()


_ROTATION_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, 1.5, 1e300, -1e300, 1.7e308,
         math.inf, -math.inf, math.nan]
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(st.tuples(*[_ROTATION_ENTRIES] * 3), min_size=1, max_size=12),
    scale=st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
)
# ties at lam = 0, and a tie with a negative coupling, whose theta is -0.0
@example(blocks=[(1.5, 1.5, 0.0), (0.5, 2.5, -0.0), (2.5, 2.5, -1.0)], scale=1.0)
@example(blocks=[(math.inf, 1.0, 0.5), (math.inf, math.inf, 0.5), (math.nan, 1.0, 2.0)],
         scale=1.0)
@example(blocks=[(0.0, 1.0, 5e-324), (1e300, -1e300, 1e-300)], scale=1e300)
def test_vectorized_rotations_match_the_scalar_rotation(blocks, scale):
    # _rotations computes the oracle's scalar Jacobi rotation for every
    # block at once with the same operations in the same order, so it has
    # its bits; uncoupled blocks are left as they are, and a NaN theta gives
    # the default NaN in both.  Entries scaled past the float range become inf
    with np.errstate(over="ignore"):
        app, aqq, apq = (np.array(column) * scale for column in zip(*blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rotations = eigensolve._rotations(app, aqq, apq)
        # the model's layout: one diagonal per block, couplings per point
        stacked = eigensolve._rotations(app, aqq, np.stack([apq, apq[::-1]]))
    expected = np.array(
        [
            oracle_tools._rotation(p, q, o) if o != 0.0 else (0.0, 1.0, 0.0)
            for p, q, o in zip(app.tolist(), aqq.tolist(), apq.tolist())
        ]
    ).T
    for got, want, both in zip(rotations, expected, stacked):
        assert got.tobytes() == want.tobytes()
        assert both[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("omega_c, lam", [(1e-200, 1e-100), (1e-100, 1e-50)])
def test_cluster_members_left_without_a_direction_restart(omega_c, lam):
    # with omega_c that small each parity chain holds two clusters of 32
    # levels tied to the last bit; the affine start vectors are
    # rank-deficient on them, so members keep only rounding noise after the
    # projection, and restart from splitmix64 start vectors
    params = ModelParams(omega1=0.0, omega2=1.0, omega_c=omega_c, lam=lam)
    basis = ps.build_basis(63)
    starts = mock.patch.object(
        eigensolve, "_start_vector", wraps=eigensolve._start_vector
    )
    with starts as restarted, warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = ps.solve_rabi(params, basis)
    assert restarted.call_count > 0
    v = eig.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(basis.dim))) <= 1e-12
    h = ps.build_rabi_hamiltonian(params, basis)
    assert eig.residual <= 1e-12 * np.linalg.norm(h)


def test_restart_vectors_are_independent_across_a_cluster():
    # no two levels' restart vectors differ by a constant, unlike the
    # affine hash, so a cluster of 64 members gets a full-rank set
    starts = np.stack([eigensolve._start_vector(64, level, 1) for level in range(64)])
    assert np.all((starts >= -0.5) & (starts < 0.5))
    assert np.linalg.matrix_rank(starts) == 64


_THREE_POINT_SOLVE = """
import sys
import numpy as np
from polariscope import ModelParams, build_basis, spectra
lams = np.array([0.01, 0.02, 0.03])
[(_, chains)] = spectra._rabi_chunks(ModelParams(), lams, build_basis(60), 8, 1e-12)
sys.stdout.buffer.write(chains.values.tobytes() + chains.vectors.tobytes())
"""


@oracle_tools.needs_blas_kernel_choice
def test_chain_eigenvectors_do_not_depend_on_the_blas_kernel():
    # at lam = 0.01-0.03 and n_max 60 each chain holds clusters of close
    # eigenvalues, which inverse iteration orthogonalizes; the projections
    # sum in a fixed order, so Prescott gives the bits of the CPU's kernel
    solved = {
        kernel: oracle_tools.run_with_blas_kernel(kernel, _THREE_POINT_SOLVE)
        for kernel in ("Prescott", None)
    }
    assert len(solved[None]) == 8 * 3 * 2 * 8 * (1 + 61)
    assert solved["Prescott"] == solved[None]


def test_overflowing_iterates_raise_nonconvergence_without_warnings():
    # energies near 1e-140 overflow inverse iteration; the residual check
    # rejects the non-finite vectors and numpy prints nothing on the way
    params = ModelParams(omega2=1e-140, omega_c=1e-140, lam=1e-140)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ps.NonConvergence) as info:
            ps.solve_rabi(params, ps.build_basis(2))
    assert info.value.lam == 1e-140


def test_energies_near_the_largest_float_raise_nonconvergence():
    # bisection brackets start at most half the largest float from zero, so
    # lo + hi cannot overflow and bisection ends: the diagonal reaches
    # 1.7e308 at n_max = 16, and overflows to inf (rows that count no
    # eigenvalue) at n_max = 40
    params = ModelParams(omega_c=1e307, lam=0.5)
    with pytest.raises(ps.NonConvergence):
        ps.solve_rabi(params, ps.build_basis(16))
    with pytest.raises(ps.NonConvergence):
        ps.solve_rabi(params, ps.build_basis(40))
    with pytest.raises(ps.NonConvergence):
        ps.convergence_study(params, [16, 40])


@pytest.mark.parametrize("solve", [ps.solve_rabi, ps.solve_rwa])
def test_structured_tol_bounds_the_residual(solve):
    params = ModelParams(lam=0.5)
    basis = ps.build_basis(6)
    with pytest.raises(ps.NonConvergence) as info:
        solve(params, basis, tol=1e-30)
    assert info.value.residual > 0
    assert info.value.lam == 0.5
    with pytest.raises(ps.ValidationError):
        solve(params, basis, tol=0.0)


_THRESHOLD_CASES = [
    (ModelParams(lam=lam, omega1=omega1, omega2=omega2, omega_c=omega_c), n_max)
    for lam in (0.0, 0.37, 3.0)
    for omega1, omega2, omega_c in ((0.0, 1.0, 1.0), (-0.3, 2.5, 1.7))
    for n_max in (0, 3, 60)
]


def test_residual_threshold_is_tol_times_the_frobenius_norm():
    # each point's threshold is tol * ||H||_F of the matrix the builders
    # assemble, to a few ulps, for both models
    tol = 1e-12
    for params, n_max in _THRESHOLD_CASES:
        basis, lams = ps.build_basis(n_max), np.array([params.lam])
        [(_, full)] = spectra._rabi_chunks(params, lams, basis, n_max + 1, tol)
        rwa = spectra._rwa_chains(params, lams, basis, tol)
        for chains, build in ((full, ps.build_rabi_hamiltonian), (rwa, ps.build_rwa_hamiltonian)):
            expected = tol * np.linalg.norm(build(params, basis))
            assert abs(chains.threshold[0] - expected) <= 4 * eigensolve._EPS * expected


@pytest.mark.parametrize("solve, build", [
    (ps.solve_rabi, ps.build_rabi_hamiltonian),
    (ps.solve_rwa, ps.build_rwa_hamiltonian),
])
def test_a_residual_just_above_tol_times_the_norm_raises(solve, build):
    # residuals forced a hair above and below tol * ||H||_F of the built
    # matrix: only the first raises
    params, basis, tol = ModelParams(omega2=1.2, lam=0.7), ps.build_basis(9), 1e-10
    bound = tol * np.linalg.norm(build(params, basis))
    init = eigensolve._Chains.__init__
    for factor, raises in ((1 + 1e-12, True), (1 - 1e-12, False)):

        def forced(self, *args):
            init(self, *args)
            self.residual = np.full_like(self.residual, factor * bound)

        with mock.patch.object(eigensolve._Chains, "__init__", forced):
            if raises:
                with pytest.raises(ps.NonConvergence) as info:
                    solve(params, basis, tol=tol)
                assert info.value.residual == factor * bound
            else:
                assert solve(params, basis, tol=tol).residual == factor * bound

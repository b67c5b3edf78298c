import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polariscope as ps
from polariscope import Atom, ModelParams, Parity, eigensolve, spectra

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


def test_identity_matrix_ordering_and_vectors():
    eig = ps.diagonalize(np.eye(4))
    assert np.array_equal(eig.eigenvalues, np.ones(4))
    assert np.array_equal(eig.eigenvectors, np.eye(4))
    assert eig.sweeps == 0
    assert eig.parities is None


def test_identity_with_basis_orders_by_parity_then_position():
    basis = ps.build_basis(1)
    eig = ps.diagonalize(np.eye(4), basis)
    # all eigenvalues tie; even columns (0, 3) come before odd ones (1, 2)
    assert np.array_equal(eig.eigenvectors, np.eye(4)[:, [0, 3, 1, 2]])
    assert eig.parities == (Parity.EVEN, Parity.EVEN, Parity.ODD, Parity.ODD)


def test_2x2_off_diagonal():
    eig = ps.diagonalize(np.array([[0.0, 0.3], [0.3, 0.0]]))
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
    eig = ps.diagonalize(a)
    np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(a), rtol=1e-14, atol=0)
    assert eig.sweeps >= 1
    assert eig.residual <= 1e-12 * math.sqrt(10.0) * scale  # tol * ||A||_F


def test_diagonal_input_converges_immediately():
    eig = ps.diagonalize(np.diag([3.0, -1.0, 2.0]))
    assert eig.sweeps == 0
    assert np.array_equal(eig.eigenvalues, [-1.0, 2.0, 3.0])


def test_ground_energy_against_frozen_bisection_oracle_lam_1_0():
    basis, h = _full_system(1.0)
    eig = ps.diagonalize(h, basis)
    assert abs(eig.eigenvalues[0] - GROUND_ENERGY_LAM_1_0) <= ORACLE_TOL
    # same value re-derived right now through the independent inertia route
    assert abs(oracle_tools.smallest_eigenvalue(h) - GROUND_ENERGY_LAM_1_0) <= ORACLE_TOL
    assert eig.eigenvalues[0] < 0.5


def test_ground_energy_against_frozen_bisection_oracle_lam_0_5():
    basis, h = _full_system(0.5)
    eig = ps.diagonalize(h, basis)
    assert abs(eig.eigenvalues[0] - GROUND_ENERGY_LAM_0_5) <= ORACLE_TOL
    assert abs(oracle_tools.smallest_eigenvalue(h) - GROUND_ENERGY_LAM_0_5) <= ORACLE_TOL


def test_ground_energy_monotone_decrease_in_lambda():
    energies = []
    for lam in np.linspace(0.0, 1.2, 13):
        basis, h = _full_system(float(lam), n_max=10)
        energies.append(ps.diagonalize(h, basis).eigenvalues[0])
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert energies[0] == 0.5


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 33])
def test_random_symmetric_matches_lapack(dim):
    rng = np.random.default_rng(1234 + dim)
    a = rng.standard_normal((dim, dim))
    a = (a + a.T) / 2.0
    eig = ps.diagonalize(a)
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
    eig = ps.diagonalize(h, basis)
    dim = basis.dim
    fro = np.linalg.norm(h)
    v, w = eig.eigenvectors, eig.eigenvalues
    assert np.max(np.abs(v.T @ v - np.eye(dim))) <= 1e-10
    assert np.linalg.norm(v @ np.diag(w) @ v.T - h) <= 1e-9 * fro
    assert np.max(np.abs(h @ v - v * w)) <= 1e-10 * fro
    assert eig.residual <= 1e-12 * fro
    assert 0 < eig.sweeps <= 64


def test_determinism_bit_identical():
    basis, h = _full_system(0.7)
    first = ps.diagonalize(h, basis)
    second = ps.diagonalize(h, basis)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    assert first.parities == second.parities


def test_sign_convention_largest_component_positive():
    basis, h = _full_system(0.9)
    eig = ps.diagonalize(h, basis)
    for k in range(basis.dim):
        column = eig.eigenvectors[:, k]
        assert column[np.argmax(np.abs(column))] > 0


def test_degenerate_ordering_at_lambda_zero():
    basis, h = _full_system(0.0, n_max=3)
    eig = ps.diagonalize(h, basis)
    # exact degeneracies |e,n-1>, |g,n> resolve by parity rank (both equal)
    # then by largest-component position: |e,n-1> has the lower index
    assert np.array_equal(eig.eigenvalues, [0.5, 1.5, 1.5, 2.5, 2.5, 3.5, 3.5, 4.5])
    expected_columns = [0, 1, 2, 3, 4, 5, 6, 7]
    assert np.array_equal(eig.eigenvectors, np.eye(8)[:, expected_columns])


def test_output_arrays_read_only():
    eig = ps.diagonalize(np.eye(3))
    with pytest.raises(ValueError):
        eig.eigenvalues[0] = 9.0
    with pytest.raises(ValueError):
        eig.eigenvectors[0, 0] = 9.0


def test_eigenvectors_are_c_contiguous():
    # the observables' BLAS products sum in a layout-dependent order, so
    # every solver hands back the same (C) layout
    basis = ps.build_basis(4)
    params = ModelParams(lam=0.5)
    for eig in (
        ps.solve_rabi(params, basis),
        ps.solve_rwa(params, basis),
        ps.diagonalize(ps.build_rabi_hamiltonian(params, basis), basis),
    ):
        assert eig.eigenvectors.flags.c_contiguous


def test_nonconvergence_raises_with_residual():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ps.NonConvergence) as info:
        ps.diagonalize(a, max_sweeps=0)
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
        ps.diagonalize(matrix)


def test_validation_rejects_bad_tol_and_basis():
    with pytest.raises(ps.ValidationError):
        ps.diagonalize(np.eye(2), tol=0.0)
    with pytest.raises(ps.ValidationError):
        ps.diagonalize(np.eye(2), tol=-1e-9)
    with pytest.raises(ps.BasisMismatch):
        ps.diagonalize(np.eye(4), ps.build_basis(2))


def test_parity_purity_of_full_hamiltonian_eigenvectors():
    for lam in (0.1, 0.5, 1.2):
        basis, h = _full_system(lam, n_max=8)
        eig = ps.diagonalize(h, basis)
        assert Parity.MIXED not in eig.parities
        counts = {p: eig.parities.count(p) for p in (Parity.EVEN, Parity.ODD)}
        assert counts[Parity.EVEN] == counts[Parity.ODD] == basis.dim // 2


def test_parity_blocks_nmax1_entries():
    basis = ps.build_basis(1)
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.1), basis)
    even, odd, perm = ps.parity_blocks(h, basis)
    assert np.array_equal(even, [[0.5, 0.1], [0.1, 2.5]])
    assert np.array_equal(odd, [[1.5, 0.1], [0.1, 1.5]])
    assert np.array_equal(perm, [0, 3, 1, 2])


def test_parity_blocks_exact_reassembly():
    basis = ps.build_basis(6)
    h = ps.build_rabi_hamiltonian(ModelParams(omega2=1.2, lam=0.8), basis)
    even, odd, perm = ps.parity_blocks(h, basis)
    permuted = h[np.ix_(perm, perm)]
    k = even.shape[0]
    assert np.array_equal(permuted[:k, :k], even)
    assert np.array_equal(permuted[k:, k:], odd)
    assert np.all(permuted[:k, k:] == 0.0)
    assert np.all(permuted[k:, :k] == 0.0)


def test_parity_blocks_spectrum_multiset_matches_direct(basis14):
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.5), basis14)
    even, odd, _ = ps.parity_blocks(h, basis14)
    combined = np.sort(
        np.concatenate(
            [ps.diagonalize(even).eigenvalues, ps.diagonalize(odd).eigenvalues]
        )
    )
    direct = ps.diagonalize(h, basis14).eigenvalues
    np.testing.assert_allclose(combined, direct, atol=1e-10)


def test_parity_blocks_raise_on_leak():
    basis = ps.build_basis(2)
    h = ps.build_rabi_hamiltonian(ModelParams(lam=0.3), basis)
    h = h.copy()
    i = basis.index(Atom.G, 0)  # even
    j = basis.index(Atom.E, 0)  # odd
    h[i, j] = h[j, i] = 1e-13
    with pytest.raises(ps.BlockLeak):
        ps.parity_blocks(h, basis)


def test_jacobi_never_mixes_parity_blocks(basis14):
    # zero couplings are never rotated, so eigenvectors stay exactly pure:
    # every cross-parity amplitude is identically 0.0
    h = ps.build_rabi_hamiltonian(ModelParams(lam=1.0), basis14)
    eig = ps.diagonalize(h, basis14)
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
        jacobi = ps.diagonalize(h, basis)
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
        eigensolve._point_system(basis, chains, point, eigensolve.INVERSE_STEPS)
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

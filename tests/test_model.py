import math

import numpy as np
import pytest

import polariscope as ps
from polariscope import ModelParams


def test_build_basis_smallest():
    basis = ps.build_basis(0)
    assert basis.dim == 2
    # |g,0> then |e,0>
    assert np.array_equal(basis.photon_numbers, [0, 0])
    assert np.array_equal(basis.excitations, [0, 1])


def test_build_basis_default_dimension():
    assert ps.build_basis(14).dim == 30


def test_basis_interleaved_index_arithmetic():
    # |g,n> sits at 2n and |e,n> at 2n + 1: the bare diagonal reads
    # w1 + w_c (n + 1/2) at even indices and w2 + w_c (n + 1/2) at odd ones
    basis = ps.build_basis(5)
    params = ModelParams(omega1=0.25, omega2=1.5)
    diag = ps.bare_energies(params, basis)
    for n in range(6):
        assert basis.photon_numbers[2 * n] == basis.photon_numbers[2 * n + 1] == n
        assert diag[2 * n] == 0.25 + (n + 0.5)
        assert diag[2 * n + 1] == 1.5 + (n + 0.5)
    assert basis.dim == 2 * 6


def test_basis_parities_nmax1():
    basis = ps.build_basis(1)
    # |g,0> even, |e,0> odd, |g,1> odd, |e,1> even
    assert np.array_equal(basis.parity_signs, [1, -1, -1, 1])


def test_excitation_count_and_parity_arrays():
    basis = ps.build_basis(3)
    assert basis.excitations[2 * 0] == 0  # |g,0>
    assert basis.excitations[2 * 1 + 1] == 2  # |e,1>
    assert basis.parity_signs[2 * 1 + 1] == 1  # |e,1>
    assert basis.parity_signs[2 * 3] == -1  # |g,3>


def test_basis_arrays_and_immutability():
    basis = ps.build_basis(2)
    assert np.array_equal(basis.photon_numbers, [0, 0, 1, 1, 2, 2])
    assert np.array_equal(basis.excitations, [0, 1, 1, 2, 2, 3])
    assert np.array_equal(basis.parity_signs, [1, -1, -1, 1, 1, -1])
    for arr in (basis.photon_numbers, basis.excitations, basis.parity_signs):
        with pytest.raises(ValueError):
            arr[0] = 7


def test_rabi_hamiltonian_nmax0_lambda0():
    params = ModelParams()
    basis = ps.build_basis(0)
    h = ps.build_rabi_hamiltonian(params, basis)
    assert np.array_equal(h, np.diag([0.5, 1.5]))


def test_rabi_hamiltonian_entries_nmax1():
    params = ModelParams(lam=0.1)
    basis = ps.build_basis(1)
    h = ps.build_rabi_hamiltonian(params, basis)
    expected = np.diag([0.5, 1.5, 1.5, 2.5]).astype(float)
    expected[1, 2] = expected[2, 1] = 0.1  # |e,0> <-> |g,1>, co-rotating
    expected[0, 3] = expected[3, 0] = 0.1  # |g,0> <-> |e,1>, counter-rotating
    assert np.array_equal(h, expected)


def test_rwa_hamiltonian_entries_nmax1():
    params = ModelParams(lam=0.1)
    basis = ps.build_basis(1)
    h = ps.build_rwa_hamiltonian(params, basis)
    expected = np.diag([0.5, 1.5, 1.5, 2.5]).astype(float)
    expected[1, 2] = expected[2, 1] = 0.1
    assert np.array_equal(h, expected)


def test_hamiltonians_equal_at_lambda_zero():
    params = ModelParams(omega1=0.1, omega2=1.3, omega_c=0.9, lam=0.0)
    basis = ps.build_basis(6)
    assert np.array_equal(
        ps.build_rabi_hamiltonian(params, basis),
        ps.build_rwa_hamiltonian(params, basis),
    )


def test_difference_is_counter_rotating_couplings_only():
    lam = 0.37
    params = ModelParams(lam=lam)
    basis = ps.build_basis(7)
    diff = ps.build_rabi_hamiltonian(params, basis) - ps.build_rwa_hamiltonian(
        params, basis
    )
    expected = np.zeros_like(diff)
    for n in range(7):
        i = 2 * n  # |g,n>
        j = 2 * (n + 1) + 1  # |e,n+1>
        expected[i, j] = expected[j, i] = lam * math.sqrt(n + 1)
    assert np.array_equal(diff, expected)


@pytest.mark.parametrize("builder", ["build_rabi_hamiltonian", "build_rwa_hamiltonian"])
def test_exact_symmetry_as_stored(builder):
    params = ModelParams(omega1=0.05, omega2=1.17, omega_c=1.03, lam=0.83)
    basis = ps.build_basis(9)
    h = getattr(ps, builder)(params, basis)
    assert np.array_equal(h, h.T)


def test_full_hamiltonian_couples_equal_parity_only():
    params = ModelParams(lam=0.6)
    basis = ps.build_basis(8)
    h = ps.build_rabi_hamiltonian(params, basis)
    signs = basis.parity_signs
    cross = np.not_equal.outer(signs, signs)
    assert np.all(h[cross] == 0.0)


def test_rwa_hamiltonian_block_diagonal_in_excitation():
    params = ModelParams(omega2=1.2, lam=0.6)
    basis = ps.build_basis(8)
    h = ps.build_rwa_hamiltonian(params, basis)
    exc = basis.excitations
    cross = np.not_equal.outer(exc, exc)
    assert np.all(h[cross] == 0.0)


@pytest.mark.parametrize("builder", ["build_rabi_hamiltonian", "build_rwa_hamiltonian"])
def test_scaling_linearity(builder):
    basis = ps.build_basis(5)
    build = getattr(ps, builder)
    base = ModelParams(omega1=0.1, omega2=1.2, omega_c=0.9, lam=0.4)
    c = 2.5
    scaled = ModelParams(
        omega1=c * base.omega1,
        omega2=c * base.omega2,
        omega_c=c * base.omega_c,
        lam=c * base.lam,
    )
    np.testing.assert_allclose(
        build(scaled, basis), c * build(base, basis), rtol=1e-14, atol=0.0
    )


def test_params_accessors():
    params = ModelParams(omega1=0.2, omega2=1.5, omega_c=1.1, lam=0.3)
    assert params.omega21 == pytest.approx(1.3)
    assert params.detuning == pytest.approx(0.2)
    assert params.with_lambda(0.9).lam == 0.9
    assert params.with_lambda(0.9).omega2 == params.omega2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega_c": 0.0},
        {"omega_c": -1.0},
        {"lam": -0.1},
        {"omega1": 1.0, "omega2": 1.0},
        {"omega1": 2.0, "omega2": 1.0},
        {"omega2": float("nan")},
        {"lam": float("inf")},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ps.ValidationError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("n_max", [-1, 2.5])
def test_build_basis_validation(n_max):
    with pytest.raises(ps.ValidationError):
        ps.build_basis(n_max)


def test_fock_basis_validates_its_own_n_max():
    # the public constructor checks n_max as build_basis does, before a
    # solver reaches numpy with a negative or fractional size
    for n_max in (-1, 2.5):
        with pytest.raises(ps.ValidationError):
            ps.FockBasis(n_max)
    basis = ps.FockBasis(3.0)
    assert type(basis.n_max) is int and basis.dim == 8


def test_parity_chains_and_bare_energies():
    basis = ps.build_basis(2)
    # even chain |g,0>, |e,1>, |g,2>; odd chain |e,0>, |g,1>, |e,2>
    assert np.array_equal(basis.parity_chains, [[0, 3, 4], [1, 2, 5]])
    for row, sign in zip(basis.parity_chains, (1, -1)):
        assert np.all(basis.parity_signs[row] == sign)
    params = ModelParams(omega1=0.2, omega2=1.3, omega_c=0.9, lam=0.4)
    for build in (ps.build_rabi_hamiltonian, ps.build_rwa_hamiltonian):
        diagonal = np.diag(build(params, basis))
        assert np.array_equal(diagonal, ps.bare_energies(params, basis))

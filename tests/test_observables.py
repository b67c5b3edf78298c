import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polariscope as ps
from polariscope import ModelParams, Parity
from polariscope.observables import _observable_arrays

import oracle_tools


def _vector(basis, amplitudes):
    # amplitudes by basis index: |g,n> is 2n and |e,n> is 2n + 1
    v = np.zeros(basis.dim)
    for index, amp in amplitudes.items():
        v[index] = amp
    return v


def _eig(params, n_max, solve=ps.solve_rabi):
    basis = ps.build_basis(n_max)
    return basis, solve(params, basis)


def test_photon_number_vacuum():
    basis = ps.build_basis(3)
    v = _vector(basis, {2 * 0: 1.0})
    assert ps.photon_number(v) == 0.0


def test_photon_number_equal_superposition():
    basis = ps.build_basis(3)
    v = _vector(basis, {2 * 1: 2**-0.5, 2 * 0 + 1: 2**-0.5})
    assert ps.photon_number(v) == pytest.approx(0.5, abs=1e-15)


def test_photon_number_ground_state_perturbative():
    # second-order perturbation theory: nbar ~ (lam / (omega21 + omega_c))^2
    params = ModelParams(lam=0.1)
    basis, eig = _eig(params, 14)
    nbar = ps.photon_number(eig.eigenvectors[:, 0])
    predicted = (params.lam / (params.omega21 + params.omega_c)) ** 2
    assert nbar == pytest.approx(predicted, rel=0.1)
    assert nbar > 0.0


def test_atomic_energy_basis_states():
    params = ModelParams(omega1=0.2, omega2=1.4)
    basis = ps.build_basis(4)
    assert ps.atomic_energy(_vector(basis, {2 * 2: 1.0}), params) == 0.2
    assert ps.atomic_energy(_vector(basis, {2 * 3 + 1: 1.0}), params) == 1.4


def test_atomic_energy_resonant_polaritons_half():
    # at resonance the n=1 RWA polaritons are equal mixtures, so the mean
    # atomic energy is (omega1 + omega2) / 2 = 0.5
    basis, eig = _eig(ModelParams(lam=0.3), 5, ps.solve_rwa)
    params = ModelParams(lam=0.3)
    for k in (1, 2):
        assert ps.atomic_energy(eig.eigenvectors[:, k], params) == pytest.approx(
            0.5, abs=1e-12
        )


def test_dipole_bare_transition_unity():
    basis = ps.build_basis(2)
    g0 = _vector(basis, {2 * 0: 1.0})
    e0 = _vector(basis, {2 * 0 + 1: 1.0})
    assert ps.dipole_element(g0, e0) == 1.0
    # photon number must be conserved by the dipole operator
    e1 = _vector(basis, {2 * 1 + 1: 1.0})
    assert ps.dipole_element(g0, e1) == 0.0


def test_dipole_polariton_intensity_half():
    basis, eig = _eig(ModelParams(lam=0.2), 6, ps.solve_rwa)
    g0 = _vector(basis, {2 * 0: 1.0})
    for k in (1, 2):
        d = ps.dipole_element(g0, eig.eigenvectors[:, k])
        assert abs(d) == pytest.approx(2**-0.5, abs=1e-12)
        assert d * d == pytest.approx(0.5, abs=1e-12)


def test_dipole_parity_selection_rule(basis14):
    eig = ps.solve_rabi(ModelParams(lam=0.5), basis14)
    ground = eig.eigenvectors[:, 0]
    assert eig.parities[0] is Parity.EVEN
    for k in range(basis14.dim):
        if eig.parities[k] is Parity.EVEN:
            assert abs(ps.dipole_element(ground, eig.eigenvectors[:, k])) <= 1e-10


def test_dipole_sum_rule(basis14):
    # sum_f |<f|sigma_+|0>|^2 equals the ground-state weight on |g,n> states
    eig = ps.solve_rabi(ModelParams(lam=0.5), basis14)
    ground = eig.eigenvectors[:, 0]
    total = sum(
        ps.dipole_element(ground, eig.eigenvectors[:, k]) ** 2
        for k in range(basis14.dim)
    )
    weight = float(np.sum(ground[0::2] ** 2))
    assert total == pytest.approx(weight, abs=1e-12)
    assert total <= 1.0 + 1e-12


def test_dipole_hermitian_variant():
    basis = ps.build_basis(2)
    g0 = _vector(basis, {2 * 0: 1.0})
    e0 = _vector(basis, {2 * 0 + 1: 1.0})
    # sigma_+ alone cannot de-excite the atom; the emission channel
    # <g,0|sigma_-|e,0> appears only in the hermitian variant
    assert ps.dipole_element(e0, g0) == 0.0
    assert ps.dipole_element(e0, g0, hermitian=True) == 1.0


def test_dipole_hermitian_matches_for_rwa_polaritons():
    basis, eig = _eig(ModelParams(lam=0.4), 6, ps.solve_rwa)
    g = eig.eigenvectors[:, 0]
    for k in (1, 2):
        plain = ps.dipole_element(g, eig.eigenvectors[:, k])
        herm = ps.dipole_element(g, eig.eigenvectors[:, k], hermitian=True)
        assert plain == pytest.approx(herm, abs=1e-12)


def test_dipole_basis_mismatch():
    a = np.zeros(4)
    a[0] = 1.0
    b = np.zeros(6)
    b[0] = 1.0
    with pytest.raises(ps.BasisMismatch):
        ps.dipole_element(a, b)


def test_norm_validation():
    v = np.zeros(4)
    v[0] = 0.9
    with pytest.raises(ps.ValidationError):
        ps.photon_number(v)
    with pytest.raises(ps.ValidationError):
        ps.atomic_energy(v, ModelParams())


def test_rwa_ground_state_exact_observables():
    params = ModelParams(lam=0.7)
    basis, eig = _eig(params, 10, ps.solve_rwa)
    ground = eig.eigenvectors[:, 0]
    assert ps.photon_number(ground) == 0.0
    assert ps.atomic_energy(ground, params) == params.omega1
    assert eig.eigenvalues[0] == params.omega1 + 0.5 * params.omega_c


def test_full_ground_state_photon_number_increases():
    values = []
    for lam in (0.2, 0.5, 0.9, 1.2):
        basis, eig = _eig(ModelParams(lam=lam), 12)
        values.append(ps.photon_number(eig.eigenvectors[:, 0]))
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_energy_partition_identity_and_variational_sign():
    params = ModelParams(lam=0.8)
    basis, eig = _eig(params, 14)
    ground = eig.eigenvectors[:, 0]
    part = ps.energy_partition(ground, params, float(eig.eigenvalues[0]))
    total = part.field + part.zero_point + part.atomic + part.interaction
    assert total == pytest.approx(eig.eigenvalues[0], abs=1e-12)
    assert part.total == eig.eigenvalues[0]
    assert part.zero_point == 0.5 * params.omega_c
    assert part.field > 0.0
    assert part.interaction < 0.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(0.0, 2.0),
    omega2=st.sampled_from([0.8, 1.0, 1.2]),
    n_max=st.integers(1, 24),
)
def test_observables_do_not_depend_on_the_layout(lam, omega2, n_max):
    # every eigenvector-weighted sum adds basis rows in ascending order, so
    # C- and F-ordered matrices, single columns, the sweep's chain vectors
    # and the absorption lines all give the same bits (and the oracle's
    # Jacobi eigenvectors, slow in Python, only on the smaller bases)
    params = ModelParams(omega2=omega2, lam=lam)
    basis = ps.build_basis(n_max)
    rows = np.arange(basis.dim)[:, None]
    grid = ps.SweepGrid(lambda_min=lam, lambda_max=lam + 0.5, steps=2, params_base=params)
    [sweep, _] = ps.run_sweep(grid, n_max, n_max)
    systems = [("full", ps.solve_rabi(params, basis)), ("rwa", ps.solve_rwa(params, basis))]
    if n_max <= 8:
        jacobi = oracle_tools.diagonalize(ps.build_rabi_hamiltonian(params, basis), basis)
        systems.append((None, jacobi))
    for model, eig in systems:
        c_vectors = np.ascontiguousarray(eig.eigenvectors)
        f_vectors = np.asfortranarray(eig.eigenvectors)
        nbar, eatom = _observable_arrays(c_vectors, params, rows)
        f_nbar, f_eatom = _observable_arrays(f_vectors, params, rows)
        assert nbar.tobytes() == f_nbar.tobytes()
        assert eatom.tobytes() == f_eatom.tobytes()
        for k in range(basis.dim):
            for vectors in (c_vectors, f_vectors):
                assert ps.photon_number(vectors[:, k]) == nbar[k]
                assert ps.atomic_energy(vectors[:, k], params) == eatom[k]
        if model is not None:
            for labeling in ("", "_tracked"):
                cells = getattr(sweep, f"photon_numbers_{model}{labeling}")
                assert cells.tobytes() == nbar[:n_max].tobytes()
                cells = getattr(sweep, f"atomic_energies_{model}{labeling}")
                assert cells.tobytes() == eatom[:n_max].tobytes()
        for vectors, hermitian in itertools.product((c_vectors, f_vectors), (False, True)):
            layout = dataclasses.replace(eig, eigenvectors=vectors)
            for line in ps.absorption_lines(layout, basis, 0.0, hermitian=hermitian):
                element = ps.dipole_element(
                    f_vectors[:, 0], c_vectors[:, line.to_index], hermitian=hermitian
                )
                # squared as the library squares: a Python float's ** 2 calls
                # libm pow, which is not always correctly rounded
                assert line.raw_intensity == element * element


@oracle_tools.needs_blas_kernel_choice
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel from the CPU unless OPENBLAS_CORETYPE names
    # one; Prescott sums a BLAS product in another order than the kernels
    # of AVX CPUs, so the default sweep, spectrum and absorption runs must
    # write the same bytes under it as under the CPU's own kernel
    script = (
        "import sys\n"
        "from polariscope.cli import main\n"
        "for command in ('sweep', 'spectrum', 'absorption'):\n"
        "    assert main([command, '--out', sys.argv[1]]) == 0\n"
    )
    written = {}
    for kernel in ("Prescott", None):
        out = tmp_path / str(kernel)
        oracle_tools.run_with_blas_kernel(kernel, script, str(out))
        written[kernel] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert {"fig4_left.csv", "spectrum.csv", "fig5.csv"} <= written[None].keys()
    assert written["Prescott"].keys() == written[None].keys()
    for name, data in written[None].items():
        assert written["Prescott"][name] == data, name

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_tools
import polariscope as ps
from polariscope import EigenSystem, ModelParams, Parity, Regime, eigensolve, spectra
from polariscope.experiments import _observable_arrays


def _synthetic(vectors: np.ndarray) -> EigenSystem:
    dim = vectors.shape[0]
    return EigenSystem(
        eigenvalues=np.arange(dim, dtype=float),
        eigenvectors=vectors,
        parities=(Parity.EVEN,) * dim,
        residual=0.0,
        labels=np.arange(dim),
    )


def test_sweepgrid_values_and_validation():
    grid = ps.SweepGrid()
    values = grid.values()
    assert values[0] == 0.0
    assert values[-1] == 1.2
    assert values.size == 121
    assert values[1] == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ps.ValidationError):
        ps.SweepGrid(lambda_min=0.5, lambda_max=0.5)
    with pytest.raises(ps.ValidationError):
        ps.SweepGrid(lambda_min=-0.1, lambda_max=1.0)
    with pytest.raises(ps.ValidationError):
        ps.SweepGrid(steps=1)
    for bounds in ({"lambda_max": np.inf}, {"lambda_max": np.nan}, {"lambda_min": -np.inf}):
        with pytest.raises(ps.ValidationError):
            ps.SweepGrid(**bounds)


def test_track_states_identity():
    basis = ps.build_basis(4)
    eig = ps.solve_rabi(ModelParams(lam=0.4), basis)
    assert np.array_equal(oracle_tools.track_states(eig, eig), np.arange(basis.dim))


def test_track_states_follows_a_swap():
    # two nearly-bare states exchange energy order between steps; tracking
    # must follow the vectors, not the sorted position
    prev = _synthetic(np.eye(2))
    swapped = np.array([[0.1, 0.995], [0.995, -0.1]])
    swapped /= np.linalg.norm(swapped, axis=0)
    cur = _synthetic(swapped)
    assert np.array_equal(oracle_tools.track_states(prev, cur), [1, 0])


def test_track_states_ambiguous_raises():
    # a state forking into a three-way equal mixture has best overlap
    # 1/sqrt(3) < 1/sqrt(2) with every predecessor
    prev = _synthetic(np.eye(3))
    w = np.full(3, 3.0**-0.5)
    u = np.eye(3)[0] - w
    u /= np.linalg.norm(u)
    householder = np.eye(3) - 2.0 * np.outer(u, u)
    with pytest.raises(oracle_tools.AmbiguousTracking) as info:
        oracle_tools.track_states(prev, _synthetic(householder))
    assert info.value.overlap == pytest.approx(3.0**-0.5, abs=1e-12)


def test_track_states_boundary_overlap_passes():
    prev = _synthetic(np.eye(2))
    s = 2.0**-0.5
    fork = np.array([[s, s], [s, -s]])
    mapping = oracle_tools.track_states(prev, _synthetic(fork))
    assert sorted(mapping.tolist()) == [0, 1]


def test_track_states_dimension_mismatch():
    with pytest.raises(ps.ValidationError):
        oracle_tools.track_states(_synthetic(np.eye(2)), _synthetic(np.eye(3)))


def test_run_sweep_row_shapes(default_sweep):
    rows = default_sweep
    assert len(rows) == 121
    for row in (rows[0], rows[60], rows[-1]):
        for name in (
            "energies_full",
            "energies_rwa",
            "photon_numbers_full",
            "photon_numbers_rwa",
            "atomic_energies_full",
            "atomic_energies_rwa",
            "energies_full_tracked",
            "energies_rwa_tracked",
            "photon_numbers_full_tracked",
            "photon_numbers_rwa_tracked",
            "atomic_energies_full_tracked",
            "atomic_energies_rwa_tracked",
        ):
            assert getattr(row, name).shape == (7,)
        assert row.nu_full.shape == (7,)
        assert row.nu_rwa.shape == (7,)
        assert row.nu_peaks_full.shape == (2,)
        assert row.nu_peaks_rwa.shape == (2,)
    assert rows[0].lam == 0.0
    assert rows[-1].lam == 1.2
    assert rows[0].regime is Regime.MODERATE
    assert rows[-1].regime is Regime.DEEP_STRONG


def test_run_sweep_lambda_zero_row(default_sweep):
    row = default_sweep[0]
    assert np.array_equal(row.energies_full, row.energies_rwa)
    assert np.array_equal(row.photon_numbers_full, row.photon_numbers_rwa)
    assert np.array_equal(row.energies_full, row.energies_full_tracked)
    assert np.array_equal(row.nu_peaks_full, row.nu_peaks_rwa)
    assert np.array_equal(row.nu_peaks_full, [1.0, 1.0])
    assert row.energies_full[0] == 0.5
    assert row.delta_nu_full == row.delta_nu_rwa == 0.0  # degenerate doublet
    assert row.photon_numbers_full[0] == 0.0


def test_run_sweep_small_coupling_agreement(default_sweep):
    row = next(r for r in default_sweep if abs(r.lam - 0.1) < 1e-12)
    dev = np.max(np.abs(row.energies_full[:3] - row.energies_rwa[:3]))
    assert dev <= 1e-2


def test_run_sweep_energies_drop_with_coupling(default_sweep):
    first, last = default_sweep[0], default_sweep[-1]
    assert np.all(last.energies_full[:3] < first.energies_full[:3])
    grounds = [row.energies_full[0] for row in default_sweep]
    assert all(b < a for a, b in zip(grounds, grounds[1:]))


def test_run_sweep_ground_photon_number_strictly_increases(default_sweep):
    nbars = [row.photon_numbers_full[0] for row in default_sweep]
    assert nbars[0] == 0.0
    assert all(b > a for a, b in zip(nbars, nbars[1:]))


def test_run_sweep_rwa_tracked_ground_constant(default_sweep):
    for row in default_sweep:
        assert row.energies_rwa_tracked[0] == 0.5
        assert row.photon_numbers_rwa_tracked[0] == 0.0
        assert row.atomic_energies_rwa_tracked[0] == 0.0


def test_run_sweep_rwa_sorted_ground_pathology(default_sweep):
    row = default_sweep[-1]  # lam = 1.2 > omega_c
    assert row.energies_rwa[0] < 0.5
    assert row.energies_rwa[0] == pytest.approx(1.5 - 1.2, abs=1e-10)


def test_run_sweep_delta_nu(default_sweep):
    row = next(r for r in default_sweep if abs(r.lam - 0.25) < 1e-12)
    assert row.delta_nu_rwa == pytest.approx(0.5, abs=1e-12)
    # below the first level crossing the peaks are simply sorted states 1, 2
    assert row.delta_nu_full == pytest.approx(row.nu_full[1] - row.nu_full[0], abs=0)
    assert np.array_equal(row.nu_peaks_full, row.nu_full[:2])


def test_rwa_peak_splitting_is_2lambda_even_past_pathology(default_sweep):
    for row in default_sweep:
        assert row.delta_nu_rwa == pytest.approx(2.0 * row.lam, abs=1e-12)
    last = default_sweep[-1]  # lam = 1.2: lower polariton below |g,0>
    assert last.nu_peaks_rwa[0] == pytest.approx(-0.2, abs=1e-10)


def test_rwa_tracked_curves_stay_in_their_excitation_block():
    grid = ps.SweepGrid(steps=25, lambda_max=1.2)
    n_max = 8
    basis = ps.build_basis(n_max)
    labels = np.arange(basis.dim)
    prev = None
    block_of_curve = {}
    for lam in grid.values():
        params = ModelParams(lam=float(lam))
        eig = ps.solve_rwa(params, basis)
        if prev is not None:
            labels = labels[oracle_tools.track_states(prev, eig)]
        for pos, curve in enumerate(labels):
            weights = eig.eigenvectors[:, pos] ** 2
            block = float(basis.excitations @ weights)
            assert block == pytest.approx(round(block), abs=1e-12)
            block_of_curve.setdefault(int(curve), round(block))
            assert block_of_curve[int(curve)] == round(block)
        prev = eig


def test_full_tracked_curves_keep_parity():
    grid = ps.SweepGrid(steps=61, lambda_max=1.2)
    rows = None
    basis = ps.build_basis(10)
    labels = np.arange(basis.dim)
    prev = None
    parity_of_curve = {}
    for lam in grid.values():
        eig = ps.solve_rabi(ModelParams(lam=float(lam)), basis)
        if prev is not None:
            labels = labels[oracle_tools.track_states(prev, eig)]
        for pos, curve in enumerate(labels):
            parity_of_curve.setdefault(int(curve), eig.parities[pos])
            assert parity_of_curve[int(curve)] == eig.parities[pos]
        prev = eig


def test_photon_number_crossover_above_lam_08(default_sweep):
    # the odd curve entering sorted slot 2 just after lam=0 and the even
    # curve in slot 3 swap energy order near lam ~ 0.42; their mean photon
    # numbers cross just above lam = 0.8, leaving the odd curve on top
    first = default_sweep[1]
    order = np.argsort(first.energies_full_tracked)
    odd_curve = int(order[2])
    even_curve = int(order[3])
    gaps = {
        row.lam: row.photon_numbers_full_tracked[odd_curve]
        - row.photon_numbers_full_tracked[even_curve]
        for row in default_sweep
    }
    assert any(gaps[lam] > 0 for lam in gaps if lam > 0.8)
    assert all(gaps[lam] > 0 for lam in gaps if lam >= 0.9)
    assert all(gaps[lam] < 0 for lam in gaps if 0.3 <= lam <= 0.7)


def test_run_sweep_deterministic_repeat():
    grid = ps.SweepGrid(steps=7, lambda_max=0.9)
    first = ps.run_sweep(grid, n_max=6, k_states=5)
    second = ps.run_sweep(grid, n_max=6, k_states=5)
    for a, b in zip(first, second):
        assert np.array_equal(a.energies_full, b.energies_full)
        assert np.array_equal(a.photon_numbers_full_tracked, b.photon_numbers_full_tracked)
        assert a.regime is b.regime


def test_run_sweep_validation():
    with pytest.raises(ps.ValidationError):
        ps.run_sweep(ps.SweepGrid(), n_max=2, k_states=7)  # chains of 3 < 8 levels
    with pytest.raises(ps.ValidationError):
        ps.run_sweep(ps.SweepGrid(), k_states=0)


def test_convergence_study_lambda_zero_exact():
    rows = ps.convergence_study(ModelParams(lam=0.0), [4, 8, 14])
    for row in rows:
        assert row.max_abs_dev == 0.0
        assert np.array_equal(row.energies, rows[-1].energies)


def test_convergence_study_deviation_shrinks():
    rows = ps.convergence_study(ModelParams(lam=1.5), [4, 14, 40])
    assert rows[0].max_abs_dev > rows[1].max_abs_dev
    assert rows[-1].max_abs_dev == 0.0
    # measured: 3.188 at n_max=4 and 3.436e-3 at n_max=14 for lam=1.5
    assert rows[0].max_abs_dev > 1.0
    assert rows[1].max_abs_dev < 1e-2


def test_convergence_study_validation():
    with pytest.raises(ps.ValidationError):
        ps.convergence_study(ModelParams(), [8, 4])
    with pytest.raises(ps.ValidationError):
        ps.convergence_study(ModelParams(), [])
    with pytest.raises(ps.ValidationError):
        ps.convergence_study(ModelParams(), [1], k_states=7)


@pytest.mark.parametrize("ladder", [[4.7, 8.2, 14.9], [-1, 4, 8]])
def test_convergence_study_rejects_rungs_build_basis_rejects(ladder):
    # a rung is checked as build_basis checks n_max, before any rounding
    with pytest.raises(ps.ValidationError) as expected:
        ps.build_basis(ladder[0])
    with pytest.raises(ps.ValidationError) as info:
        ps.convergence_study(ModelParams(lam=0.5), ladder)
    assert str(info.value) == str(expected.value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega2=st.sampled_from([0.8, 1.0, 1.2, 2.5]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    ladder=st.lists(
        st.integers(min_value=0, max_value=24), min_size=1, max_size=5, unique=True
    ).map(sorted),
    k_states=st.integers(min_value=1, max_value=12),
)
@example(omega2=1.0, lam=0.0, ladder=[3, 5, 9], k_states=7)
@example(omega2=1.0, lam=1e-9, ladder=[3, 5, 9], k_states=7)
@example(omega2=1.0, lam=1.0, ladder=[4, 6, 8, 10, 14, 20, 28, 40, 63], k_states=7)
def test_convergence_study_matches_per_rung_solves(omega2, lam, ladder, k_states):
    # the whole ladder is bisected at once for the lowest levels of each
    # chain, including rungs whose chains are shorter than k_states; every
    # energy keeps the bits of a full solve at that rung, at lam = 0 and in
    # tight clusters (lam = 1e-9)
    k_states = min(k_states, 2 * (ladder[0] + 1))
    params = ModelParams(omega2=omega2, lam=lam)
    rows = ps.convergence_study(params, ladder, k_states)
    energies = [
        ps.solve_rabi(params, ps.build_basis(n_max)).eigenvalues[:k_states]
        for n_max in ladder
    ]
    assert [row.n_max for row in rows] == ladder
    for row, expected in zip(rows, energies):
        assert row.energies.tobytes() == expected.tobytes()
        assert row.max_abs_dev == float(np.max(np.abs(expected - energies[-1])))


def _rung_chains(params, n_max, k_states, tol=1e-12):
    """The chains of one truncation solved alone, for its lowest
    min(k_states, n_max + 1) levels per chain."""
    basis, lams = ps.build_basis(n_max), np.array([params.lam])
    [(_, chains)] = spectra._rabi_chunks(params, lams, basis, min(k_states, n_max + 1), tol)
    return chains


def _ladder_check(params, ladder, k_states, tol=1e-12):
    """The energies of ``convergence_study`` and the residual and threshold
    arrays of the chains its ladder passes to the residual check."""
    with mock.patch.object(
        spectra, "_check_residuals", wraps=eigensolve._check_residuals
    ) as check:
        rows = ps.convergence_study(params, ladder, k_states, tol=tol)
    [(_, chains)] = [call.args for call in check.call_args_list]
    return rows, chains.residual, chains.threshold


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega2=st.sampled_from([0.8, 1.0, 1.2, 2.5]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    ladder=st.lists(
        st.integers(min_value=0, max_value=24), min_size=1, max_size=5, unique=True
    ).map(sorted),
    k_states=st.integers(min_value=1, max_value=12),
)
@example(omega2=1.0, lam=0.0, ladder=[3, 5, 9], k_states=7)
@example(omega2=1.0, lam=1e-9, ladder=[3, 5, 9], k_states=7)
@example(omega2=1.0, lam=1.0, ladder=[5, 6, 8, 10, 14, 20, 28, 40, 63], k_states=12)
def test_ladder_residuals_match_per_rung_solves(omega2, lam, ladder, k_states):
    # the ladder's one residual pass, over rungs padded past their end and
    # lanes past a short rung's end, gives each rung the residual and
    # threshold of a solve of that rung alone, bit for bit
    k_states = min(k_states, 2 * (ladder[0] + 1))
    params = ModelParams(omega2=omega2, lam=lam)
    _, residual, threshold = _ladder_check(params, ladder, k_states)
    rungs = [_rung_chains(params, n_max, k_states) for n_max in ladder]
    assert residual.tobytes() == np.concatenate([c.residual for c in rungs]).tobytes()
    assert threshold.tobytes() == np.concatenate([c.threshold for c in rungs]).tobytes()


def test_ladder_restarts_like_per_rung_solves():
    # clusters ~1e-200 wide restart their members from fresh start vectors;
    # a restart puts no weight on a rung's padded rows, so the residuals,
    # thresholds and energies keep the bits of the per-rung solves
    params, ladder, k_states = ModelParams(omega_c=1e-200, lam=1e-100), [20, 28, 40, 63], 40
    with mock.patch.object(
        eigensolve, "_start_vector", wraps=eigensolve._start_vector
    ) as start:
        rows, residual, threshold = _ladder_check(params, ladder, k_states)
    assert start.called
    rungs = [_rung_chains(params, n_max, k_states) for n_max in ladder]
    assert residual.tobytes() == np.concatenate([c.residual for c in rungs]).tobytes()
    assert threshold.tobytes() == np.concatenate([c.threshold for c in rungs]).tobytes()
    for row, chains in zip(rows, rungs):
        assert row.energies.tobytes() == np.sort(chains.values, axis=None)[:k_states].tobytes()


def test_ladder_residuals_ignore_rows_past_a_rung_end():
    # at omega_c = 1e307 the diagonal overflows to inf from n = 18 on, past
    # the ends of the two short rungs: the residual check zeroes the
    # diagonal there, so they keep the residuals of per-rung solves, and
    # only the long rung, which holds those rows, fails
    params, ladder = ModelParams(omega_c=1e307), [4, 10, 20]
    with mock.patch.object(
        spectra, "_check_residuals", wraps=eigensolve._check_residuals
    ) as check, pytest.raises(ps.NonConvergence):
        ps.convergence_study(params, ladder)
    [(_, chains)] = [call.args for call in check.call_args_list]
    rungs = [_rung_chains(params, n_max, 7) for n_max in ladder]
    short = np.concatenate([c.residual for c in rungs[:2]])
    assert chains.residual[:2].tobytes() == short.tobytes()
    assert np.isnan(chains.residual[2]) and np.isnan(rungs[2].residual[0])


def test_ladder_nonconvergence_names_the_first_failing_rung():
    params, ladder = ModelParams(lam=1.0), [10, 14, 20]
    rungs = [_rung_chains(params, n_max, 7) for n_max in ladder]
    # every rung fails: the smallest is reported
    with pytest.raises(ps.NonConvergence) as info:
        ps.convergence_study(params, ladder, tol=1e-30)
    assert info.value.residual == rungs[0].residual[0]
    assert info.value.lam == 1.0
    # a tol between the relative residuals of the first two rungs: the
    # first passes, the second is reported, whatever the third does
    relative = [c.residual[0] / (c.threshold[0] / 1e-12) for c in rungs]
    assert relative[0] < relative[1]
    with pytest.raises(ps.NonConvergence) as info:
        ps.convergence_study(params, ladder, tol=0.5 * (relative[0] + relative[1]))
    assert info.value.residual == rungs[1].residual[0]


def test_sweep_datasets_structure():
    grid = ps.SweepGrid(steps=5, lambda_max=0.8)
    datasets = ps.sweep_datasets(grid, n_max=6, k_states=5)
    assert set(datasets) == {"fig2", "fig3", "fig4_left", "fig4_right"}
    fig2 = datasets["fig2"]
    assert fig2.columns[0] == "lambda"
    assert "e_full_0" in fig2.columns
    assert "e_rwa_tracked_0" in fig2.columns
    assert "regime" in fig2.columns
    assert len(fig2.rows) == 5
    fig3 = datasets["fig3"]
    assert "nu_full_1" in fig3.columns
    assert "peak_full_1" in fig3.columns
    assert "peak_rwa_2" in fig3.columns
    assert "delta_nu_rwa" in fig3.columns
    fig4_left = datasets["fig4_left"]
    tracked_ground = fig4_left.columns.index("nbar_rwa_tracked_0")
    assert all(row[tracked_ground] == 0.0 for row in fig4_left.rows)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    omega1=st.sampled_from([0.0, 0.3]),
    omega2=st.sampled_from([0.8, 1.0, 1.3, 1.7]),
    omega_c=st.sampled_from([0.5, 1.0]),
    lam=st.one_of(st.sampled_from([0.0, -0.0, 1e-9]), st.floats(min_value=0.0, max_value=3.0)),
    n_max=st.integers(min_value=0, max_value=40),
    k_states=st.integers(min_value=0, max_value=12),
)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=0.0, n_max=2, k_states=9)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=-0.0, n_max=9, k_states=12)
@example(omega1=0.3, omega2=0.8, omega_c=0.5, lam=0.0, n_max=14, k_states=12)
@example(omega1=0.0, omega2=1.0, omega_c=0.5, lam=0.0, n_max=20, k_states=7)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=1e-9, n_max=14, k_states=7)
@example(omega1=0.0, omega2=1.0, omega_c=1.0, lam=3.0, n_max=40, k_states=12)
def test_spectrum_dataset_matches_whole_eigensystems(
    omega1, omega2, omega_c, lam, n_max, k_states
):
    # only the lowest k_states + 1 levels of each parity chain are solved,
    # and the observables come from the chain vectors; every cell keeps the
    # bits of the whole eigensystems, including the ties at lam = 0 (within
    # a chain at resonance, across the chains at omega21 = 2 omega_c) and
    # more states asked for than the basis holds
    params = ModelParams(omega1=omega1, omega2=omega2, omega_c=omega_c, lam=lam)
    dataset = ps.spectrum_dataset(params, n_max, k_states)
    assert dataset.name == "spectrum"
    assert repr(dataset.rows) == repr(oracle_tools.spectrum_rows(params, n_max, k_states))


def test_spectrum_dataset_validation():
    with pytest.raises(ps.ValidationError, match="k_states must be an integer >= 0"):
        ps.spectrum_dataset(ModelParams(), k_states=-1)
    with pytest.raises(ps.ValidationError, match="tol"):
        ps.spectrum_dataset(ModelParams(), tol=0.0)


def test_absorption_dataset_contents():
    dataset = ps.absorption_dataset(ModelParams(lam=0.5))
    assert dataset.name == "fig5"
    models = [row[0] for row in dataset.rows]
    assert set(models) == {"full", "rwa"}
    assert models == sorted(models, key=lambda m: m != "full")  # full block first
    rwa_rows = [row for row in dataset.rows if row[0] == "rwa"]
    assert len(rwa_rows) == 2
    full_rows = [row for row in dataset.rows if row[0] == "full"]
    assert len(full_rows) >= 4


def test_fig3_peaks_match_rwa_at_small_coupling(default_sweep):
    for target in (0.2, 0.4):
        row = next(r for r in default_sweep if abs(r.lam - target) < 1e-12)
        assert abs(row.nu_peaks_full[0] - row.nu_peaks_rwa[0]) <= 2e-2
        assert abs(row.nu_peaks_full[1] - row.nu_peaks_rwa[1]) <= 2e-2


def test_fig3_full_peaks_move_down_while_rwa_splits(default_sweep):
    by_lam = {round(row.lam, 10): row for row in default_sweep}
    for lam in (0.8, 1.0, 1.2):
        assert by_lam[lam].nu_peaks_full[0] < by_lam[0.6].nu_peaks_full[0]
        assert by_lam[lam].nu_peaks_full[1] < by_lam[0.6].nu_peaks_full[1]
    # the RWA gap doubles over the same range while the full gap is nearly flat
    full_gaps = [by_lam[lam].delta_nu_full for lam in (0.6, 0.8, 1.0, 1.2)]
    assert max(full_gaps) - min(full_gaps) <= 0.1 * max(full_gaps)
    assert by_lam[1.2].delta_nu_rwa == pytest.approx(2.4, abs=1e-12)


@pytest.mark.parametrize("omega2", [1.0, 0.8, 1.2])
def test_label_tracking_matches_overlap_tracking(omega2):
    # run_sweep follows states by symmetry label; chaining the overlap
    # tracker oracle_tools.track_states over the same eigensystems must give
    # the same tracked columns, including the resonant fork at lambda = 0
    grid = ps.SweepGrid(params_base=ModelParams(omega2=omega2))
    basis = ps.build_basis(14)
    basis_rows = np.arange(basis.dim)[:, None]
    rows = ps.run_sweep(grid, n_max=14, k_states=7)
    full, rwa = zip(*oracle_tools.point_systems(grid, 14))
    for model, systems in (("full", full), ("rwa", rwa)):
        curves = np.arange(basis.dim)
        prev = None
        for row, eig in zip(rows, systems):
            if prev is not None:
                curves = curves[oracle_tools.track_states(prev, eig)]
            positions = np.empty(basis.dim, dtype=int)
            positions[curves] = np.arange(basis.dim)
            params = grid.params_base.with_lambda(row.lam)
            nbar, eatom = _observable_arrays(eig.eigenvectors, params, basis_rows)
            pos = positions[:7]
            for quantity, values in (
                ("energies", eig.eigenvalues),
                ("photon_numbers", nbar),
                ("atomic_energies", eatom),
            ):
                tracked = getattr(row, f"{quantity}_{model}_tracked")
                assert np.array_equal(tracked, values[pos])
            prev = eig


@pytest.mark.parametrize("omega2", [1.0, 0.8, 1.2])
def test_run_sweep_rows_equal_the_per_point_builder(omega2):
    # run_sweep tabulates chunks of the grid from chain arrays and solves
    # only the lowest k_states + 1 levels of each full-model chain; every
    # field keeps the bits of rows built from whole per-point eigensystems,
    # through the exact even/odd crossing at lambda = 0.4 off resonance
    grid = ps.SweepGrid(params_base=ModelParams(omega2=omega2))
    rows = ps.run_sweep(grid)
    expected = oracle_tools.sweep_rows(grid)
    assert len(rows) == len(expected)
    for row, reference in zip(rows, expected):
        for field in dataclasses.fields(ps.SweepRow):
            value, want = getattr(row, field.name), getattr(reference, field.name)
            assert type(value) is type(want), field.name
            if isinstance(want, np.ndarray):
                assert value.shape == want.shape and value.tobytes() == want.tobytes(), (
                    row.lam,
                    field.name,
                )
            else:
                assert value == want, (row.lam, field.name)


@pytest.mark.parametrize(
    "grid, n_max, k_states",
    [
        *((ps.SweepGrid(params_base=ModelParams(omega2=w)), 14, 7) for w in (0.8, 1.0, 1.2)),
        (ps.SweepGrid(steps=5, lambda_max=0.8), 6, 5),
    ],
    ids=["0.8", "1.0", "1.2", "small"],
)
def test_sweep_datasets_equal_the_row_assembly(tmp_path, grid, n_max, k_states):
    # sweep_datasets reads its cells straight from the sweep tables; they
    # must be the cells of run_sweep's rows read field by field, with the
    # same float bits and regimes, and emit to the same bytes
    datasets = ps.sweep_datasets(grid, n_max, k_states)
    expected = oracle_tools.datasets_from_rows(ps.run_sweep(grid, n_max, k_states))
    assert list(datasets) == list(expected)
    for name, dataset in datasets.items():
        reference = expected[name]
        assert dataset.name == reference.name
        assert dataset.columns == reference.columns
        assert len(dataset.rows) == len(reference.rows)
        for row, want in zip(dataset.rows, reference.rows):
            assert len(row) == len(want) == len(dataset.columns)
            for value, cell in zip(row, want):
                if isinstance(cell, Regime):
                    assert value is cell
                else:
                    assert type(value) is float
                    assert value.hex() == float(cell).hex(), (name, row[0])
        for fmt in ("csv", "json"):
            written = [
                ps.emit_dataset(table.rows, table.columns, fmt, tmp_path / f"{side}.{fmt}")
                for side, table in (("tables", dataset), ("rows", reference))
            ]
            assert written[0].read_bytes() == written[1].read_bytes(), (name, fmt)


def test_observable_arrays_match_per_state_functions():
    # one summation rule serves the whole matrix and the single columns, so
    # they agree bit for bit
    params = ModelParams(omega1=0.3, omega2=1.4, lam=0.7)
    eig = ps.solve_rabi(params, ps.build_basis(10))
    rows = np.arange(eig.dim)[:, None]
    nbar, eatom = _observable_arrays(eig.eigenvectors, params, rows)
    for k in range(eig.dim):
        column = eig.eigenvectors[:, k]
        assert nbar[k] == ps.photon_number(column)
        assert eatom[k] == ps.atomic_energy(column, params)
    with pytest.raises(ps.ValidationError, match="unit norm"):
        _observable_arrays(eig.eigenvectors * (1.0 + 1e-9), params, rows)

"""Acceptance criteria, one test (and one recorded pass/fail line) each.

The numeric tolerances are part of the contract and are asserted exactly as
stated; measured maxima are recorded in the run log where the contract asks
for them (criteria 2 and 7).
"""

import numpy as np

import polariscope as ps
from polariscope import ModelParams, Parity, Regime
from polariscope.cli import CONVERGE_LADDER

import oracle_tools


def _check(record, number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _rwa_eig(params, n_max=14):
    basis = ps.build_basis(n_max)
    return basis, ps.solve_rwa(params, basis)


def _full_eig(params, n_max=14):
    basis = ps.build_basis(n_max)
    return basis, ps.solve_rabi(params, basis)


def test_criterion_1_rwa_matches_closed_form(record):
    n_max = 14
    worst = 0.0
    for omega2 in (1.0, 1.2, 0.8):  # detuning 0, +0.2, -0.2
        for lam in np.arange(0.0, 1.5001, 0.05):
            params = ModelParams(omega2=omega2, lam=float(lam))
            _, eig = _rwa_eig(params, n_max)
            analytic = [ps.rwa_ground_energy(params), omega2 + (n_max + 0.5)]
            for n in range(1, n_max + 1):
                analytic.extend(ps.rwa_analytic_levels(params, n))
            dev = float(np.max(np.abs(eig.eigenvalues - np.sort(analytic))))
            worst = max(worst, dev)
    _check(
        record,
        1,
        worst <= 1e-10,
        f"numeric RWA spectrum vs closed form, max |dev| = {worst:.3e} "
        "(tol 1e-10; n <= 14, lambda in 0..1.5 step 0.05, detuning 0, +/-0.2)",
    )


def test_criterion_2_low_coupling_agreement_and_divergence(record, default_sweep):
    small = [r for r in default_sweep if r.lam <= 0.1 + 1e-12]
    dev_small = max(
        float(np.max(np.abs(r.energies_full[:3] - r.energies_rwa[:3]))) for r in small
    )
    at_half = next(r for r in default_sweep if abs(r.lam - 0.5) < 1e-12)
    dev_half = float(np.max(np.abs(at_half.energies_full[:3] - at_half.energies_rwa[:3])))
    ok = dev_small <= 2e-2 and dev_half > 5e-2
    _check(
        record,
        2,
        ok,
        f"lowest-3 full-vs-RWA: measured max dev = {dev_small:.6e} for "
        f"lambda <= 0.1 (tol 2e-2); measured max dev = {dev_half:.6e} at "
        "lambda = 0.5 (must exceed 5e-2)",
    )


def test_criterion_3_rwa_level_crossing_at_omega_c(record):
    params_eq = ModelParams(lam=1.0)
    minus_eq, _ = ps.rwa_analytic_levels(params_eq, 1)
    gap_eq = abs(minus_eq - ps.rwa_ground_energy(params_eq))
    _, eig_eq = _rwa_eig(params_eq)
    gap_numeric = float(abs(eig_eq.eigenvalues[1] - eig_eq.eigenvalues[0]))
    params_beyond = ModelParams(lam=1.1)
    minus_beyond, _ = ps.rwa_analytic_levels(params_beyond, 1)
    below = minus_beyond < ps.rwa_ground_energy(params_beyond)
    ok = gap_eq <= 1e-12 and gap_numeric <= 1e-12 and below
    _check(
        record,
        3,
        ok,
        f"eps_minus(1) meets the RWA ground at lambda = 1.0 (analytic gap "
        f"{gap_eq:.1e}, numeric gap {gap_numeric:.1e}, tol 1e-12) and drops "
        "below it at lambda = 1.1",
    )


def test_criterion_4_ground_state_photon_number(record, default_sweep):
    nbars = [row.photon_numbers_full[0] for row in default_sweep]
    increasing = nbars[0] == 0.0 and all(b > a for a, b in zip(nbars, nbars[1:]))
    positive = all(v > 0.0 for v in nbars[1:])
    rwa_zero = all(row.photon_numbers_rwa_tracked[0] == 0.0 for row in default_sweep)
    worst_rel = 0.0
    for row in default_sweep:
        if 0.0 < row.lam <= 0.1 + 1e-12:
            params = ModelParams(lam=row.lam)
            predicted = (params.lam / (params.omega21 + params.omega_c)) ** 2
            worst_rel = max(
                worst_rel, abs(row.photon_numbers_full[0] - predicted) / predicted
            )
    ok = increasing and positive and rwa_zero and worst_rel <= 0.10
    _check(
        record,
        4,
        ok,
        "full ground nbar strictly increasing and > 0 for lambda > 0; RWA "
        "tracked ground nbar identically 0; perturbative estimate within "
        f"10% for lambda <= 0.1 (measured worst {worst_rel:.2%})",
    )


def test_criterion_5_rabi_splitting_and_peak_shift(record, default_sweep):
    dev_exact = max(
        abs(row.delta_nu_rwa - 2.0 * row.lam) for row in default_sweep
    )
    worst_rel = 0.0
    for row in default_sweep:
        if 0.0 < row.lam <= 0.4 + 1e-12:
            worst_rel = max(
                worst_rel,
                abs(row.delta_nu_full - row.delta_nu_rwa) / row.delta_nu_rwa,
            )
    reference = next(r for r in default_sweep if abs(r.lam - 0.6) < 1e-12)
    shifted = all(
        row.nu_peaks_full[0] < reference.nu_peaks_full[0]
        and row.nu_peaks_full[1] < reference.nu_peaks_full[1]
        for row in default_sweep
        if row.lam >= 0.8 - 1e-12
    )
    ok = dev_exact <= 1e-12 and worst_rel <= 0.05 and shifted
    _check(
        record,
        5,
        ok,
        f"RWA splitting equals 2*lambda (max |dev| {dev_exact:.1e}, tol "
        f"1e-12); full splitting within 5% for lambda <= 0.4 (measured worst "
        f"{worst_rel:.2%}); both full peaks strictly below their lambda = 0.6 "
        "positions for every grid lambda >= 0.8",
    )


def test_criterion_6_absorption_line_structure(record):
    params = ModelParams(lam=0.5)
    basis_r, eig_r = _rwa_eig(params)
    rwa_lines = ps.absorption_lines(eig_r, basis_r)
    rwa_count = len(rwa_lines)
    ratio = (
        rwa_lines[0].intensity / rwa_lines[1].intensity if rwa_count == 2 else np.inf
    )
    basis_f, eig_f = _full_eig(params)
    full_lines = ps.absorption_lines(eig_f, basis_f)
    intensities = [line.intensity for line in full_lines]
    enough = len(full_lines) >= 4
    group_ratio = (
        min(intensities[0], intensities[1]) / max(intensities[2], intensities[3])
        if enough
        else 0.0
    )
    ok = (
        rwa_count == 2
        and abs(ratio - 1.0) <= 1e-9
        and enough
        and 5.0 <= group_ratio <= 50.0
    )
    _check(
        record,
        6,
        ok,
        f"lambda = 0.5: RWA has exactly {rwa_count} lines with intensity "
        f"ratio {ratio:.12f} (tol 1e-9); full H has {len(full_lines)} lines "
        f"(>= 4) and lines 3-4 are weaker than lines 1-2 by a factor "
        f"{group_ratio:.3f} (required 5..50)",
    )


def test_criterion_7_truncation_convergence(record):
    # The lowest seven levels converge with truncation to 1e-8 for every
    # lambda <= 1.0, measured against n_max = 63.  The truncation that gets
    # there grows with lambda: n_max = 14 suffices through lambda = 0.75 and
    # n_max = 20 through lambda = 1.0 (n_max = 14 is ~1.4e-6 off at 1.0).
    tol = 1e-8
    ladder = [n for n in CONVERGE_LADDER if n <= 20] + [63]
    monotone = True
    at_20 = {}
    at_14 = {}
    first_within = {}
    worst_oracle = 0.0
    for lam in (0.25, 0.5, 0.75, 1.0):
        params = ModelParams(lam=lam)
        rows = ps.convergence_study(params, ladder, k_states=7)
        devs = {row.n_max: row.max_abs_dev for row in rows}
        # each rung still above tolerance must be no closer than the next one
        monotone &= all(
            b.max_abs_dev <= a.max_abs_dev
            for a, b in zip(rows, rows[1:])
            if a.max_abs_dev > tol
        )
        at_20[lam] = devs[20]
        at_14[lam] = devs[14]
        first_within[lam] = next(n for n in ladder if devs[n] <= tol)
        # independent route: LAPACK on the same matrix at every rung, so the
        # deviations above are the truncation's, not the in-house solver's
        for row in rows:
            ref = oracle_tools.reference_spectrum(
                ps.build_rabi_hamiltonian(params, ps.build_basis(row.n_max))
            )
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(np.asarray(row.energies) - ref[:7])))
            )
    at_14_required = max(dev for lam, dev in at_14.items() if lam <= 0.75)
    ok = (
        monotone
        and max(at_20.values()) <= tol
        and at_14_required <= tol
        and worst_oracle <= 1e-10
    )
    rungs = ", ".join(f"{lam}: {n}" for lam, n in first_within.items())
    _check(
        record,
        7,
        ok,
        f"lowest-7 energies vs n_max = 63 over n_max ladder {ladder[:-1]}, "
        f"lambda in 0.25/0.5/0.75/1.0 (tol 1e-8): deviation non-increasing "
        f"while above tol = {monotone}; n_max = 20 max |dev| "
        f"{max(at_20.values()):.3e}; n_max = 14 max |dev| {at_14_required:.3e} "
        f"for lambda <= 0.75 and {at_14[1.0]:.3e} at lambda = 1.0 (not "
        f"required); first n_max within tol per lambda {{{rungs}}}; in-house "
        f"vs LAPACK max |dev| {worst_oracle:.1e} (tol 1e-10); see README, Tests",
    )


def test_criterion_8_structural_exactness(record, tmp_path):
    params = ModelParams(lam=0.8)
    basis = ps.build_basis(14)
    h = ps.build_rabi_hamiltonian(params, basis)
    # block leak: every entry between the even and the odd chain is 0.0
    even, odd = basis.parity_chains
    leak_free = not np.count_nonzero(h[np.ix_(even, odd)]) and not np.count_nonzero(
        h[np.ix_(odd, even)]
    )
    _, eig = _full_eig(params)
    signs = basis.parity_signs
    cross_amp = 0.0
    for k in range(basis.dim):
        column = eig.eigenvectors[:, k]
        dominant = np.sign(signs[np.argmax(np.abs(column))])
        cross_amp = max(cross_amp, float(np.max(np.abs(column[signs != dominant]))))
    fro = float(np.linalg.norm(h))
    recon = float(
        np.linalg.norm(
            eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T - h
        )
    )
    ortho = float(
        np.max(np.abs(eig.eigenvectors.T @ eig.eigenvectors - np.eye(basis.dim)))
    )
    ground = eig.eigenvectors[:, 0]
    dipole_even = max(
        abs(ps.dipole_element(ground, eig.eigenvectors[:, k]))
        for k in range(basis.dim)
        if eig.parities[k] is Parity.EVEN
    )
    grid = ps.SweepGrid(steps=25, lambda_max=1.2)
    byte_equal = True
    reference = None
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        datasets = ps.sweep_datasets(grid, n_max=10, k_states=7)
        datasets["fig5"] = ps.absorption_dataset(grid.params_base.with_lambda(0.5), n_max=10)
        blobs = []
        for name in sorted(datasets):
            p = ps.emit_dataset(
                datasets[name].rows, datasets[name].columns, "csv", out / f"{name}.csv"
            )
            blobs.append(p.read_bytes())
        if reference is None:
            reference = blobs
        else:
            byte_equal = blobs == reference
    ok = (
        leak_free
        and cross_amp == 0.0
        and recon <= 1e-9 * fro
        and ortho <= 1e-10
        and dipole_even <= 1e-10
        and byte_equal
    )
    _check(
        record,
        8,
        ok,
        f"block leak exactly 0 (cross amplitude {cross_amp:.1e}); "
        f"reconstruction {recon / fro:.2e} of ||A||_F (tol 1e-9); "
        f"orthonormality dev {ortho:.2e} (tol 1e-10); even->even dipole "
        f"{dipole_even:.2e} (tol 1e-10); repeated sweep emission "
        f"byte-identical = {byte_equal}",
    )


def test_criterion_9_regime_classification(record):
    expected = {
        0.05: Regime.MODERATE,
        0.3: Regime.STRONG,
        0.7: Regime.ULTRA_STRONG,
        1.5: Regime.DEEP_STRONG,
        0.1: Regime.MODERATE,
        0.5: Regime.STRONG,
        1.0: Regime.ULTRA_STRONG,
    }
    got = {lam: ps.classify_regime(lam) for lam in expected}
    ok = got == expected
    _check(
        record,
        9,
        ok,
        "regimes at 0.05/0.3/0.7/1.5 are moderate/strong/ultra-strong/"
        "deep-strong and boundaries 0.1/0.5/1.0 fall to the lower regime"
        + ("" if ok else f"; got {got}"),
    )

import math

import numpy as np
import pytest

import polariscope as ps
from polariscope import ModelParams, Regime


def _rwa_eig(params, n_max=14):
    basis = ps.build_basis(n_max)
    return basis, ps.solve_rwa(params, basis)


def _full_eig(params, n_max=14):
    basis = ps.build_basis(n_max)
    return basis, ps.solve_rabi(params, basis)


def test_rwa_levels_block1_resonance():
    minus, plus = ps.rwa_analytic_levels(ModelParams(lam=0.5), 1)
    assert minus == pytest.approx(1.0, abs=1e-15)
    assert plus == pytest.approx(2.0, abs=1e-15)


def test_rwa_ground_energy():
    assert ps.rwa_ground_energy(ModelParams()) == 0.5
    assert ps.rwa_ground_energy(ModelParams(omega1=0.2, omega_c=0.8)) == pytest.approx(
        0.6
    )


def _rwa_splitting(params, n):
    minus, plus = ps.rwa_analytic_levels(params, n)
    return plus - minus


def test_rwa_splitting_values():
    # the gap of block n is sqrt(Delta^2 + 4 n lam^2)
    assert _rwa_splitting(ModelParams(lam=0.5), 1) == pytest.approx(1.0, abs=1e-15)
    assert _rwa_splitting(ModelParams(lam=0.5), 2) == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )
    detuned = ModelParams(omega2=1.2, lam=0.3)
    assert _rwa_splitting(detuned, 1) == pytest.approx(
        math.sqrt(0.2**2 + 4 * 0.3**2), abs=1e-15
    )


def test_rwa_splitting_monotone_in_lambda_and_block():
    lams = np.linspace(0.05, 1.5, 30)
    gaps = [_rwa_splitting(ModelParams(lam=float(v)), 1) for v in lams]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    params = ModelParams(lam=0.4)
    by_block = [_rwa_splitting(params, n) for n in range(1, 8)]
    assert all(b > a for a, b in zip(by_block, by_block[1:]))


def test_rwa_plus_above_minus_except_trivial_point():
    minus, plus = ps.rwa_analytic_levels(ModelParams(lam=0.0), 3)
    assert plus == minus  # resonance and lam = 0: degenerate
    minus, plus = ps.rwa_analytic_levels(ModelParams(lam=1e-9), 3)
    assert plus > minus


def test_rwa_analytic_levels_validation():
    with pytest.raises(ps.ValidationError):
        ps.rwa_analytic_levels(ModelParams(), 0)
    with pytest.raises(ps.ValidationError):
        ps.rwa_analytic_levels(ModelParams(), 1.5)


@pytest.mark.parametrize("omega2", [1.0, 1.2, 0.8])
def test_rwa_numeric_matches_closed_form(omega2):
    params = ModelParams(omega2=omega2, lam=0.3)
    basis, eig = _rwa_eig(params)
    n_max = 14
    analytic = [ps.rwa_ground_energy(params), params.omega2 + (n_max + 0.5)]
    for n in range(1, n_max + 1):
        analytic.extend(ps.rwa_analytic_levels(params, n))
    np.testing.assert_allclose(eig.eigenvalues, np.sort(analytic), atol=1e-10)


def test_rwa_degeneracy_at_lambda_equal_omega_c():
    params = ModelParams(lam=1.0)
    minus, _ = ps.rwa_analytic_levels(params, 1)
    assert abs(minus - ps.rwa_ground_energy(params)) <= 1e-12
    basis, eig = _rwa_eig(params)
    assert abs(eig.eigenvalues[1] - eig.eigenvalues[0]) <= 1e-12


def test_rwa_pathology_minus_below_ground_beyond_omega_c():
    params = ModelParams(lam=1.1)
    minus, _ = ps.rwa_analytic_levels(params, 1)
    assert minus < ps.rwa_ground_energy(params)


def test_transition_frequencies_rwa_resonance():
    params = ModelParams(lam=0.25)
    basis, eig = _rwa_eig(params)
    nu = eig.eigenvalues[1:] - eig.eigenvalues[0]
    assert nu.shape == (basis.dim - 1,)
    assert nu[0] == pytest.approx(1.0 - 0.25, abs=1e-12)
    assert nu[1] == pytest.approx(1.0 + 0.25, abs=1e-12)
    assert nu[1] - nu[0] == pytest.approx(2 * 0.25, abs=1e-12)


def test_absorption_rwa_exactly_two_equal_lines():
    params = ModelParams(lam=0.5)
    basis, eig = _rwa_eig(params)
    lines = ps.absorption_lines(eig, basis)
    assert len(lines) == 2
    assert lines[0].frequency == pytest.approx(0.5, abs=1e-12)
    assert lines[1].frequency == pytest.approx(1.5, abs=1e-12)
    ratio = lines[0].intensity / lines[1].intensity
    assert abs(ratio - 1.0) <= 1e-9
    assert lines[0].raw_intensity == pytest.approx(0.5, abs=1e-12)
    assert all(line.from_index == 0 for line in lines)


def test_absorption_full_additional_lines_at_strong_coupling():
    params = ModelParams(lam=0.5)
    basis, eig = _full_eig(params)
    lines = ps.absorption_lines(eig, basis)
    assert len(lines) >= 4
    assert [line.frequency for line in lines] == sorted(
        line.frequency for line in lines
    )
    intensities = [line.intensity for line in lines]
    # the two polariton lines dominate; the next pair sits well below
    group_ratio = min(intensities[0], intensities[1]) / max(
        intensities[2], intensities[3]
    )
    assert 5.0 <= group_ratio <= 50.0


def test_absorption_weak_coupling_resonant_doublet():
    # at resonance even a vanishing coupling yields two equal-weight lines
    # split by 2*lam: each polariton is an equal atom/photon mixture
    params = ModelParams(lam=1e-4)
    basis, eig = _full_eig(params, n_max=8)
    lines = ps.absorption_lines(eig, basis)
    assert len(lines) == 2
    assert lines[1].frequency - lines[0].frequency == pytest.approx(2e-4, rel=1e-3)
    assert lines[0].intensity == pytest.approx(1.0, abs=1e-3)
    assert lines[1].intensity == pytest.approx(1.0, abs=1e-3)


def test_absorption_weak_coupling_detuned_single_line():
    # off resonance the photon-like state decouples and one atomic line is left
    params = ModelParams(omega2=1.2, lam=1e-4)
    basis, eig = _full_eig(params, n_max=8)
    lines = ps.absorption_lines(eig, basis)
    assert len(lines) == 1
    assert lines[0].frequency == pytest.approx(1.2, abs=1e-3)
    assert lines[0].intensity == 1.0


def test_absorption_threshold_filtering():
    params = ModelParams(lam=0.5)
    basis, eig = _full_eig(params)
    everything = ps.absorption_lines(eig, basis, threshold=0.0)
    strong_only = ps.absorption_lines(eig, basis, threshold=0.5)
    assert len(everything) > len(ps.absorption_lines(eig, basis))
    assert len(strong_only) == 2
    with pytest.raises(ps.ValidationError):
        ps.absorption_lines(eig, basis, threshold=-0.1)


def test_regime_examples_and_boundaries():
    cases = {
        0.05: Regime.MODERATE,
        0.3: Regime.STRONG,
        0.7: Regime.ULTRA_STRONG,
        1.5: Regime.DEEP_STRONG,
        # boundaries belong to the lower regime
        0.1: Regime.MODERATE,
        0.5: Regime.STRONG,
        1.0: Regime.ULTRA_STRONG,
    }
    for lam, expected in cases.items():
        assert ps.classify_regime(lam) is expected


def test_regime_ratio_uses_omega_c():
    assert ps.classify_regime(0.2, omega_c=2.0) is Regime.MODERATE
    assert ps.classify_regime(1.2, omega_c=2.0) is Regime.ULTRA_STRONG


def test_regime_monotone_in_ratio():
    ratios = np.linspace(0.0, 2.0, 81)
    regimes = [ps.classify_regime(float(r)) for r in ratios]
    assert all(b >= a for a, b in zip(regimes, regimes[1:]))


def test_regime_labels():
    labels = [str(regime) for regime in Regime]
    assert labels == [regime.label for regime in Regime]
    assert labels == ["moderate", "strong", "ultra-strong", "deep-strong"]


def test_regime_validation():
    with pytest.raises(ps.ValidationError):
        ps.classify_regime(0.5, omega_c=0.0)
    with pytest.raises(ps.ValidationError):
        ps.classify_regime(-0.1)

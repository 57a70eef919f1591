"""Tests for the pump-side models, with the two-mode conversion unitary as
the physics reference of the efficiency law.

The unitary is scipy's ``expm`` of the mixing generator on a truncated Fock
space.  Frozen numbers below were computed independently before wiring them in:
the Heisenberg-picture mode transformation from the 2x2 beamsplitter
algebra, the dephasing factor from exp(-2 pi * 150 kHz * 1 ns), and the
peak pump power from (pi/2)^2 / coeff.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.optimize import least_squares

from qfcsim.conversion import (
    EfficiencyModel,
    conversion_efficiency,
    fit_efficiency_curve,
    pump_dephasing_factor,
)
from qfcsim.config import ExperimentConfig

DEPHASING_150KHZ_1NS = 0.9990579661966258
PEAK_POWER_W = 0.6853891945200943
LOSS_RTOL = 1e-15 + 100.0 * float(np.finfo(np.longdouble).eps)
EFF_AT_700MW = 0.6198280458589798


def _mode_operators(n_max):
    dim = n_max + 1
    low = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)
    eye = np.eye(dim, dtype=complex)
    return np.kron(low, eye), np.kron(eye, low)


def _unitary(theta, phi=0.0, n_max=2):
    """exp(theta (e^{-i phi} ac+ as - e^{i phi} as+ ac)) on the signal (x)
    converted space, indexed n_signal * (n_max + 1) + n_converted."""
    a_s, a_c = _mode_operators(n_max)
    return expm(theta * (np.exp(-1j * phi) * (a_c.conj().T @ a_s)
                         - np.exp(1j * phi) * (a_s.conj().T @ a_c)))


def _index(n_max, n_signal, n_converted):
    return n_signal * (n_max + 1) + n_converted


def _scipy_fit(samples):
    """Multi-start bounded trust-region least squares, the fit's reference."""
    arr = np.asarray(samples, dtype=float)
    powers, effs = arr[:, 0], arr[:, 1]

    def residuals(theta):
        return theta[0] * np.sin(np.sqrt(theta[1] * powers)) ** 2 - effs

    p_top = powers[int(np.argmax(effs))]
    coeff_guess = (math.pi / 2.0) ** 2 / p_top if p_top > 0 else 1.0
    sols = [least_squares(residuals, x0=[np.max(effs), coeff_guess * factor],
                          bounds=([0.0, 1e-12], [2.0, np.inf]),
                          xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
            for factor in (1.0, 0.25, 4.0, 0.05, 20.0)]
    return min(sols, key=lambda sol: sol.cost).x


def _extended_loss(peak, coeff, samples):
    # the sum of squares in long double, so the float64 rounding floor
    # (a few 1e-15 relative) does not decide which fit is better; where long
    # double is plain double, LOSS_RTOL widens by that floor
    arr = np.asarray(samples, dtype=np.longdouble)
    powers, effs = arr[:, 0], arr[:, 1]
    model = np.longdouble(peak) * np.sin(np.sqrt(np.longdouble(coeff) * powers)) ** 2
    return np.sum((model - effs) ** 2)


def _noisy_sets():
    """20 noisy 40-point sets, then the demo's noisy 45-point set."""
    model = EfficiencyModel(peak=0.62, coeff=3.6)
    rng = np.random.default_rng(777)
    powers = np.linspace(0.02, 0.7, 40)
    sets = [[(p, conversion_efficiency(float(p), model) + rng.normal(0.0, 0.01))
             for p in powers] for _ in range(20)]
    rng = np.random.default_rng(5)
    sets.append([(p, max(0.0, conversion_efficiency(p, model) + rng.normal(0, 0.01)))
                 for p in np.linspace(0.0, 1.1, 45)])
    return sets


def test_zero_angle_is_identity():
    u = _unitary(0.0, n_max=3)
    assert_allclose(u, np.eye(16), atol=1e-14)


def test_full_conversion_swaps_single_photon():
    # at theta = pi/2 the photon hops bands and picks up the conjugate
    # pump phase: |1,0> -> e^{-i phi} |0,1>
    phi = 0.83
    u = _unitary(math.pi / 2.0, phi=phi)
    amp = u[_index(2, 0, 1), _index(2, 1, 0)]
    assert abs(amp - np.exp(-1j * phi)) < 1e-12
    assert abs(u[_index(2, 1, 0), _index(2, 1, 0)]) < 1e-12


def test_transmittance_is_cos_squared():
    for theta in np.linspace(0.0, math.pi, 13):
        u = _unitary(float(theta), n_max=1)
        stay = abs(u[_index(1, 1, 0), _index(1, 1, 0)]) ** 2
        assert abs(stay - math.cos(theta) ** 2) < 1e-12


def test_unitary_properties_random_params():
    rng = np.random.default_rng(1234)
    # photon number is conserved: no amplitude between different totals
    totals = np.add.outer(np.arange(3), np.arange(3)).ravel()
    crosses = totals[:, None] != totals[None, :]
    for _ in range(200):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        u = _unitary(theta, phi=phi)
        assert_allclose(u @ u.conj().T, np.eye(9), atol=1e-12)
        assert np.max(np.abs(u[crosses])) < 1e-12


def test_angles_compose_at_fixed_phase():
    rng = np.random.default_rng(99)
    for _ in range(25):
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        assert_allclose(_unitary(float(t1), phi) @ _unitary(float(t2), phi),
                        _unitary(float(t1 + t2), phi), atol=1e-12)


def test_heisenberg_mode_transformation():
    # U+ a_s U = cos(theta) a_s - e^{i phi} sin(theta) a_c, checked away
    # from the truncation edge where the finite Fock ladder is exact.
    theta, phi, n_max = 0.7, 1.1, 6
    u = _unitary(theta, phi, n_max)
    a_s, a_c = _mode_operators(n_max)
    transformed = u.conj().T @ a_s @ u
    expected = math.cos(theta) * a_s - np.exp(1j * phi) * math.sin(theta) * a_c
    dim = n_max + 1
    totals = np.repeat(np.arange(dim), dim) + np.tile(np.arange(dim), dim)
    keep = totals <= 3
    err = np.max(np.abs((transformed - expected)[np.ix_(keep, keep)]))
    assert err < 1e-12


def test_two_photon_interference_null():
    # balanced mixing sends |1,1> to a superposition of |2,0> and |0,2>
    # with no |1,1> component left (cos^2 - sin^2 = 0 at theta = pi/4)
    col = _unitary(math.pi / 4.0)[:, _index(2, 1, 1)]
    assert abs(col[_index(2, 1, 1)]) < 1e-12
    assert abs(abs(col[_index(2, 2, 0)]) ** 2 - 0.5) < 1e-12
    assert abs(abs(col[_index(2, 0, 2)]) ** 2 - 0.5) < 1e-12


def test_efficiency_law_values():
    model = EfficiencyModel(peak=0.62, coeff=3.6)
    assert abs(conversion_efficiency(0.7, model) - EFF_AT_700MW) < 1e-12
    assert abs(model.peak_power_w - PEAK_POWER_W) < 1e-12
    assert abs(conversion_efficiency(model.peak_power_w, model) - 0.62) < 1e-12
    assert conversion_efficiency(0.0, model) == 0.0


def test_efficiency_coeff_units_agree():
    per_w = EfficiencyModel(peak=0.62, coeff=3.6, coeff_unit="per_W")
    per_mw = EfficiencyModel(peak=0.62, coeff=3.6e-3, coeff_unit="per_mW")
    for power in (0.1, 0.4, 0.7):
        assert abs(conversion_efficiency(power, per_w)
                   - conversion_efficiency(power, per_mw)) < 1e-14


def test_efficiency_law_matches_fock_unitary():
    # the closed form is peak times the single-photon transfer probability
    # |<0,1|U|1,0>|^2 of the two-mode unitary at theta = sqrt(coeff * P)
    for model in (EfficiencyModel(peak=0.62, coeff=3.6),
                  EfficiencyModel(peak=0.9, coeff=1.2e-3, coeff_unit="per_mW")):
        for power in np.linspace(0.0, 2.5, 26):
            theta = math.sqrt(model.coeff_per_watt * power)
            u = _unitary(theta, phi=0.3, n_max=1)
            transfer = abs(u[_index(1, 0, 1), _index(1, 1, 0)]) ** 2
            assert abs(conversion_efficiency(float(power), model)
                       - model.peak * transfer) < 1e-12


def test_efficiency_monotone_up_to_peak():
    model = EfficiencyModel(peak=0.62, coeff=3.6)
    grid = np.linspace(0.0, model.peak_power_w, 200)
    effs = [conversion_efficiency(float(p), model) for p in grid]
    assert all(b > a for a, b in zip(effs, effs[1:]))
    # and it comes back down past the peak
    assert conversion_efficiency(2.5, model) < 0.62


def test_fit_recovers_exact_curve():
    model = EfficiencyModel(peak=0.62, coeff=3.6)
    powers = np.linspace(0.0, 0.7, 30)
    samples = [(float(p), conversion_efficiency(float(p), model)) for p in powers]
    fit = fit_efficiency_curve(samples)
    assert fit.converged and fit.coeff_identifiable
    assert abs(fit.peak - 0.62) < 1e-6
    assert abs(fit.coeff - 3.6) < 1e-6
    assert fit.residual < 1e-12


def test_fit_with_noise_stays_close():
    for samples in _noisy_sets()[:20]:
        fit = fit_efficiency_curve(samples)
        assert abs(fit.peak - 0.62) < 0.05
        assert abs(fit.coeff - 3.6) < 0.5


def test_fit_matches_scipy_reference():
    # no worse than multi-start trust-region least squares on the noisy
    # sets and on the sparse exact grid of acceptance criterion 1
    model = EfficiencyModel(peak=0.62, coeff=3.6)
    sparse = [(p, conversion_efficiency(p, model)) for p in np.linspace(0.0, 1.1, 12)]
    for samples in _noisy_sets() + [sparse]:
        fit = fit_efficiency_curve(samples)
        ours = _extended_loss(fit.peak, fit.coeff, samples)
        reference = _extended_loss(*_scipy_fit(samples), samples)
        assert ours <= reference * (1.0 + LOSS_RTOL)
        assert fit.residual == pytest.approx(float(ours), rel=1e-13, abs=1e-30)


def test_fit_zero_data_flags_unidentifiable():
    fit = fit_efficiency_curve([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.0)])
    assert fit.peak == 0.0
    assert math.isnan(fit.coeff)
    assert not fit.coeff_identifiable
    with pytest.raises(ValueError):
        fit.model()


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_efficiency_curve([(0.0, 0.0), (0.1, 0.1)])
    with pytest.raises(ValueError):
        fit_efficiency_curve([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        fit_efficiency_curve([(-0.1, 0.0), (0.1, 0.1), (0.2, 0.2)])


def test_dephasing_factor():
    assert abs(pump_dephasing_factor(150e3, 1e-9) - DEPHASING_150KHZ_1NS) < 1e-15
    assert pump_dephasing_factor(0.0, 1e-9) == 1.0
    # 1/e exactly when the delay equals the coherence time
    lw = 2e5
    coherence_time = 1.0 / (2.0 * math.pi * lw)
    assert abs(pump_dephasing_factor(lw, coherence_time) - math.exp(-1.0)) < 1e-15


def test_noise_mean_is_linear():
    assert ExperimentConfig(pump_power=0.7, noise_coeff=0.2).noise_mean() == pytest.approx(0.14)
    assert ExperimentConfig(pump_power=0.0, noise_coeff=5.0).noise_mean() == 0.0

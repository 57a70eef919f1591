"""Tests for the two-mode conversion unitary and the pump-side models.

Frozen numbers below were computed independently before wiring them in:
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
    ConversionParams,
    EfficiencyModel,
    apply_conversion,
    build_conversion_unitary,
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
    u = build_conversion_unitary(ConversionParams(theta=0.0, n_max=3))
    assert_allclose(u.matrix, np.eye(u.dim), atol=1e-14)


def test_full_conversion_swaps_single_photon():
    # at theta = pi/2 the photon hops bands and picks up the conjugate
    # pump phase: |1,0> -> e^{-i phi} |0,1>
    phi = 0.83
    u = build_conversion_unitary(ConversionParams(theta=math.pi / 2.0, phi=phi, n_max=2))
    amp = u.matrix[u.index(0, 1), u.index(1, 0)]
    assert abs(amp - np.exp(-1j * phi)) < 1e-12
    assert abs(u.matrix[u.index(1, 0), u.index(1, 0)]) < 1e-12


def test_transmittance_is_cos_squared():
    for theta in np.linspace(0.0, math.pi, 13):
        u = build_conversion_unitary(ConversionParams(theta=float(theta), n_max=1))
        stay = abs(u.matrix[u.index(1, 0), u.index(1, 0)]) ** 2
        assert abs(stay - math.cos(theta) ** 2) < 1e-12


def test_unitary_properties_random_params():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        u = build_conversion_unitary(ConversionParams(theta=theta, phi=phi, n_max=2))
        assert_allclose(u.matrix @ u.matrix.conj().T, np.eye(u.dim), atol=1e-12)
        # photon number is conserved: no amplitude between different totals
        dim = u.n_max + 1
        for ns in range(dim):
            for nc in range(dim):
                for ms in range(dim):
                    for mc in range(dim):
                        if ns + nc != ms + mc:
                            assert abs(u.matrix[u.index(ns, nc), u.index(ms, mc)]) < 1e-12


def test_angles_compose_at_fixed_phase():
    rng = np.random.default_rng(99)
    for _ in range(25):
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        u1 = build_conversion_unitary(ConversionParams(theta=float(t1), phi=phi, n_max=2))
        u2 = build_conversion_unitary(ConversionParams(theta=float(t2), phi=phi, n_max=2))
        u12 = build_conversion_unitary(ConversionParams(theta=float(t1 + t2), phi=phi, n_max=2))
        assert_allclose(u1.matrix @ u2.matrix, u12.matrix, atol=1e-12)


def test_heisenberg_mode_transformation():
    # U+ a_s U = cos(theta) a_s - e^{i phi} sin(theta) a_c, checked away
    # from the truncation edge where the finite Fock ladder is exact.
    params = ConversionParams(theta=0.7, phi=1.1, n_max=6)
    u = build_conversion_unitary(params).matrix
    a_s, a_c = _mode_operators(params.n_max)
    transformed = u.conj().T @ a_s @ u
    expected = math.cos(params.theta) * a_s \
        - np.exp(1j * params.phi) * math.sin(params.theta) * a_c
    dim = params.n_max + 1
    totals = np.repeat(np.arange(dim), dim) + np.tile(np.arange(dim), dim)
    keep = totals <= 3
    err = np.max(np.abs((transformed - expected)[np.ix_(keep, keep)]))
    assert err < 1e-12


def test_unitary_matches_scipy_expm():
    for n_max in range(1, 6):
        a_s, a_c = _mode_operators(n_max)
        for theta in np.linspace(0.0, 10.0, 21):
            for phi in (0.0, 0.83, 4.0):
                gen = theta * (np.exp(-1j * phi) * (a_c.conj().T @ a_s)
                               - np.exp(1j * phi) * (a_s.conj().T @ a_c))
                u = build_conversion_unitary(ConversionParams(float(theta), phi, n_max))
                assert_allclose(u.matrix, expm(gen), rtol=0.0, atol=1e-12)


def test_two_photon_interference_null():
    # balanced mixing sends |1,1> to a superposition of |2,0> and |0,2>
    # with no |1,1> component left (cos^2 - sin^2 = 0 at theta = pi/4)
    u = build_conversion_unitary(ConversionParams(theta=math.pi / 4.0, n_max=2))
    col = u.matrix[:, u.index(1, 1)]
    assert abs(col[u.index(1, 1)]) < 1e-12
    assert abs(abs(col[u.index(2, 0)]) ** 2 - 0.5) < 1e-12
    assert abs(abs(col[u.index(0, 2)]) ** 2 - 0.5) < 1e-12


def test_apply_conversion_roundtrip():
    u = build_conversion_unitary(ConversionParams(theta=0.4, phi=0.2, n_max=1))
    rho = np.zeros((u.dim, u.dim), dtype=complex)
    rho[u.index(1, 0), u.index(1, 0)] = 1.0
    out = apply_conversion(rho, u)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert abs(out[u.index(0, 1), u.index(0, 1)] - math.sin(0.4) ** 2) < 1e-12
    with pytest.raises(ValueError):
        apply_conversion(np.eye(3), u)
    with pytest.raises(ValueError):
        apply_conversion(2.0 * rho, u)


def test_param_validation():
    with pytest.raises(ValueError):
        ConversionParams(theta=-0.1)
    with pytest.raises(ValueError):
        ConversionParams(theta=math.nan)
    with pytest.raises(ValueError):
        ConversionParams(theta=0.1, n_max=0)
    # phase is stored reduced mod 2 pi
    assert abs(ConversionParams(theta=0.1, phi=-0.5).phi - (2.0 * math.pi - 0.5)) < 1e-12


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
            u = build_conversion_unitary(ConversionParams(theta=theta, phi=0.3, n_max=1))
            transfer = abs(u.matrix[u.index(0, 1), u.index(1, 0)]) ** 2
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

"""Polarization/time-bin qubit algebra checks.

The encode -> convert -> decode chain is exercised against hand-worked
states: the decoder Kraus diag(1, e^{i phase})/sqrt(2) keeps the photon
with probability exactly 1/2 for every input, and a zero decoder phase
returns the maximally entangled target unchanged.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qfcsim.config import PRESETS, ConfigError
from qfcsim.qubits import (
    KET_H,
    KET_V,
    PHI_PLUS,
    check_density_matrix,
    convert_timebin_qubit,
    dephase_timebin,
    density,
    end_to_end_state,
    entangled_pair_state,
    half_wave_plate,
    noise_weight,
    partial_trace_b,
    quarter_wave_plate,
    timebin_to_pol,
)

KET_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
PHI_MINUS = (np.kron(KET_H, KET_H) - np.kron(KET_V, KET_V)) / math.sqrt(2.0)


def _random_two_qubit_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_waveplate_jones_matrices():
    # HWP at 22.5 degrees rotates H onto the diagonal basis
    out = half_wave_plate(math.pi / 8.0) @ KET_H
    assert_allclose(density(out), density(KET_D), atol=1e-12)
    # QWP at 45 degrees makes circular light from H
    out = quarter_wave_plate(math.pi / 4.0) @ KET_H
    circ = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert_allclose(density(out), density(circ), atol=1e-12)
    # HWP at 0: H passes, V flips sign only
    hwp0 = half_wave_plate(0.0)
    assert_allclose(density(hwp0 @ KET_V), density(KET_V), atol=1e-12)


def test_waveplates_are_unitary():
    rng = np.random.default_rng(5)
    for _ in range(50):
        angle = float(rng.uniform(0.0, math.pi))
        for plate in (half_wave_plate, quarter_wave_plate):
            u = plate(angle)
            assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_partial_traces():
    rho = density(PHI_PLUS)
    assert_allclose(partial_trace_b(rho), np.eye(2) / 2.0, atol=1e-12)
    # product states separate
    rho_a = density(KET_D)
    rho_b = density(np.array([0.6, 0.8j]))
    prod = np.kron(rho_a, rho_b)
    assert_allclose(partial_trace_b(prod), rho_a, atol=1e-12)


def test_check_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3), dim=4)
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_density_matrix(2.0 * np.eye(2))
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(bad)


def test_check_density_matrix_holds_hermiticity_to_1e8_absolute():
    # a relative tolerance of 1e-5 on the 0.1 element let this 1e-6 asymmetry through
    rho = np.array([[0.5, 0.1], [0.1 + 1e-6, 0.5]])
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density_matrix(rho)
    rho[1, 0] = 0.1 + 5e-9
    check_density_matrix(rho)


def test_dephase_timebin_kills_bin_coherence():
    rho = density(PHI_PLUS)
    out = dephase_timebin(rho, 0.0)
    assert_allclose(out, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), atol=1e-12)
    assert_allclose(dephase_timebin(rho, 1.0), rho, atol=1e-12)
    # partial dephasing scales the off-diagonal block linearly
    half = dephase_timebin(rho, 0.5)
    assert abs(half[0, 3] - 0.25) < 1e-12
    with pytest.raises(ValueError):
        dephase_timebin(rho, 1.5)


def test_convert_timebin_weights():
    rng = np.random.default_rng(78)
    for _ in range(10):
        rho = _random_two_qubit_state(rng)
        # weight 0 is the dephased signal alone, weight 1 the noise rho_A x I/2 alone
        assert_allclose(convert_timebin_qubit(rho, 0.3, 0.0), dephase_timebin(rho, 0.3),
                        atol=1e-15)
        noise = np.kron(partial_trace_b(rho), np.eye(2) / 2.0)
        assert_allclose(convert_timebin_qubit(rho, 0.3, 1.0), noise, atol=1e-15)
        assert_allclose(convert_timebin_qubit(rho, 1.0, 0.5), 0.5 * rho + 0.5 * noise,
                        atol=1e-15)
    for weight in (-0.1, 1.1):
        with pytest.raises(ValueError, match="weight"):
            convert_timebin_qubit(rho, 1.0, weight)


def test_decode_success_probability_is_half():
    # K = diag(1, e^{i phase})/sqrt(2) keeps the photon with probability
    # Tr[K rho K+] = 1/2 for every input, so the decoded state is twice that
    rng = np.random.default_rng(77)
    kraus = np.kron(np.eye(2), np.diag([1.0, np.exp(0.4j)]) / math.sqrt(2.0))
    for _ in range(30):
        rho = _random_two_qubit_state(rng)
        assert abs(np.trace(kraus @ rho @ kraus.conj().T).real - 0.5) < 1e-12
        assert_allclose(timebin_to_pol(rho, 0.4), 2.0 * kraus @ rho @ kraus.conj().T,
                        atol=1e-12)


def test_decode_phase_selects_bell_state():
    # encoding is the relabeling H -> S, V -> L, so the encoded state is PHI_PLUS
    enc = density(PHI_PLUS)
    assert_allclose(timebin_to_pol(enc, 0.0), density(PHI_PLUS), atol=1e-12)
    assert_allclose(timebin_to_pol(enc, math.pi), density(PHI_MINUS), atol=1e-12)


def test_end_to_end_calibrated_fidelity():
    cfg = PRESETS["calibrated_tomo"]()
    rho = end_to_end_state(cfg)
    check_density_matrix(rho, dim=4)
    f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    assert abs(f - 0.75) < 1e-12


def test_end_to_end_source_only():
    cfg = PRESETS["source_only_tomo"]()
    rho = end_to_end_state(cfg)
    f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    # (1 + 3 w)/4 at w = 14/15
    assert abs(f - 0.95) < 1e-12


def test_end_to_end_noiseless_chain_preserves_werner():
    cfg = PRESETS["calibrated_tomo"]()
    cfg.noise_coeff = 0.0
    cfg.pump_linewidth = 0.0
    rho = end_to_end_state(cfg)
    assert_allclose(rho, entangled_pair_state(cfg.werner_weight), atol=1e-12)


# pump powers over the physical range, subnormals included, and the noise
# coefficient over its whole rule, so nu can overflow
@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(mzi_phase=st.floats(allow_nan=False, allow_infinity=False),
       pump_linewidth=st.floats(0.0, allow_infinity=False),
       werner_weight=st.floats(0.0, 1.0), interface=st.booleans(),
       pump_power=st.floats(0.0, 10.0), noise_coeff=st.floats(0.0, allow_infinity=False))
@example(mzi_phase=0.7, pump_linewidth=150e3, werner_weight=14 / 15, interface=True,
         pump_power=0.7, noise_coeff=0.21911353214504486)
@example(mzi_phase=0.0, pump_linewidth=0.0, werner_weight=1.0, interface=True,
         pump_power=0.0, noise_coeff=0.2)  # no photon leaves the converter
@example(mzi_phase=0.0, pump_linewidth=0.0, werner_weight=1.0, interface=True,
         pump_power=1e-310, noise_coeff=0.2)  # a subnormal s + nu
@example(mzi_phase=0.0, pump_linewidth=0.0, werner_weight=1.0, interface=True,
         pump_power=2.0, noise_coeff=1e308)  # nu overflows
def test_pump_noise_is_white_noise_of_weight_w(**values):
    # the floor that tomo --subtract-bg removes rests on this law: the state is
    # its noiseless self mixed with I/4 at weight w = nu / (s + nu)
    cfg = PRESETS["calibrated_tomo"]()
    vars(cfg).update(values)  # unvalidated, so that the law meets a nu beyond float too
    if math.isfinite(cfg.noise_mean()):
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match=r"noise_coeff \* pump_power=.* W must be finite"):
            cfg.validate()
    total = cfg.chain_efficiency() + cfg.noise_mean()
    if cfg.interface and not np.finfo(float).tiny <= total < math.inf:
        # the state refuses the sum itself, through the one law that forms w
        for law in (noise_weight, end_to_end_state):
            with pytest.raises(ConfigError, match="chain efficiency plus pump noise is "):
                law(cfg)
        return
    w = noise_weight(cfg)
    assert w == (cfg.noise_mean() / total if cfg.interface else 0.0)
    expected = w * np.eye(4) / 4.0
    if w < 1.0:  # at w = 1 the noiseless state has no photon to carry
        expected = expected + (1.0 - w) * end_to_end_state(replace(cfg, noise_coeff=0.0))
    assert_allclose(end_to_end_state(cfg), expected, rtol=0.0, atol=1e-15)

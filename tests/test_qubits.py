"""Polarization/time-bin qubit algebra checks.

The encode -> convert -> decode chain is exercised against hand-worked
states: the decoder Kraus diag(1, e^{i phase})/sqrt(2) keeps the photon
with probability exactly 1/2 for every input, and a zero decoder phase
returns the maximally entangled target unchanged.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfcsim.config import calibrated_tomo_config, source_only_tomo_config
from qfcsim.qubits import (
    KET_D,
    KET_H,
    KET_V,
    PHI_MINUS,
    PHI_PLUS,
    check_density_matrix,
    convert_timebin_qubit,
    dephase_timebin,
    density,
    end_to_end_state,
    half_wave_plate,
    partial_trace_b,
    quarter_wave_plate,
    timebin_to_pol,
)


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
    rho = density(PHI_PLUS)
    # pure transmission leaves the state alone
    assert_allclose(convert_timebin_qubit(rho, 1.0, 1.0, 0.0), rho, atol=1e-12)
    # pure noise replaces qubit B with a maximally mixed one
    noise_only = convert_timebin_qubit(rho, 0.0, 1.0, 0.3)
    assert_allclose(noise_only, np.eye(4) / 4.0, atol=1e-12)
    # equal weights average the two
    mixed = convert_timebin_qubit(rho, 0.2, 1.0, 0.2)
    assert_allclose(mixed, 0.5 * rho + 0.5 * np.eye(4) / 4.0, atol=1e-12)
    with pytest.raises(ValueError):
        convert_timebin_qubit(rho, 0.0, 1.0, 0.0)


def test_decode_success_probability_is_half():
    rng = np.random.default_rng(77)
    for _ in range(30):
        rho = _random_two_qubit_state(rng)
        _, p = timebin_to_pol(rho, 0.4)
        assert abs(p - 0.5) < 1e-12


def test_decode_phase_selects_bell_state():
    # encoding is the relabeling H -> S, V -> L, so the encoded state is PHI_PLUS
    enc = density(PHI_PLUS)
    out, _ = timebin_to_pol(enc, 0.0)
    assert_allclose(out, density(PHI_PLUS), atol=1e-12)
    out, _ = timebin_to_pol(enc, math.pi)
    assert_allclose(out, density(PHI_MINUS), atol=1e-12)


def test_end_to_end_calibrated_fidelity():
    cfg = calibrated_tomo_config()
    rho = end_to_end_state(cfg)
    check_density_matrix(rho, dim=4)
    f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    assert abs(f - 0.75) < 1e-12


def test_end_to_end_source_only():
    cfg = source_only_tomo_config()
    rho = end_to_end_state(cfg)
    f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
    # (1 + 3 w)/4 at w = 14/15
    assert abs(f - 0.95) < 1e-12


def test_end_to_end_noiseless_chain_preserves_werner():
    cfg = calibrated_tomo_config()
    cfg.noise_coeff = 0.0
    cfg.pump_linewidth = 0.0
    rho = end_to_end_state(cfg)
    from qfcsim.sources import entangled_pair_state
    assert_allclose(rho, entangled_pair_state(cfg.werner_weight), atol=1e-12)

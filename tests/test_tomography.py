"""Measurement settings, count simulation, and maximum-likelihood fitting.

The reconstruction check feeds exact outcome probabilities in as "counts"
(the fitter accepts unrounded values), so the unique likelihood optimum is
the true state and any distance from it is pure solver error.
"""

import inspect
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfcsim.qubits import (KET_D, KET_H, KET_R, KET_V, PHI_PLUS, density)
from qfcsim.tomography import (
    ARM_SCHEDULE,
    CountRecord,
    MeasurementSetting,
    analysis_ket,
    density_matrix_from_json,
    density_matrix_to_json,
    load_records,
    mle_reconstruct,
    mle_reconstruct_batch,
    save_records,
    simulate_counts,
    standard_settings,
    subtract_background,
)

LABEL_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "R": KET_R}


def _random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _exact_counts(rho, settings, scale=1.0):
    return [scale * float(np.real(np.trace(s.projector @ rho))) for s in settings]


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_arm_schedule_measures_the_named_states():
    for label, qwp, hwp in ARM_SCHEDULE:
        ket = analysis_ket(qwp, hwp)
        assert_allclose(density(ket), density(LABEL_KETS[label]), atol=1e-12)


def test_standard_settings_layout():
    settings = standard_settings()
    assert len(settings) == 16
    labels = [s.label for s in settings]
    assert labels[:4] == ["HH", "HV", "HD", "HR"]
    assert labels[4] == "VH"
    assert labels[-1] == "RR"
    for s in settings:
        # rank-one projector
        assert abs(np.trace(s.projector) - 1.0) < 1e-12
        assert_allclose(s.projector @ s.projector, s.projector, atol=1e-12)


def test_settings_are_informationally_complete():
    stack = np.stack([s.projector for s in standard_settings()])
    rank = np.linalg.matrix_rank(stack.reshape(16, -1), tol=1e-10)
    assert rank == 16


def test_bell_state_setting_probabilities():
    rho = density(PHI_PLUS)
    probs = {s.label: float(np.real(np.trace(s.projector @ rho)))
             for s in standard_settings()}
    assert abs(probs["HH"] - 0.5) < 1e-12
    assert abs(probs["HV"]) < 1e-12
    assert abs(probs["DD"] - 0.5) < 1e-12
    assert abs(probs["RR"]) < 1e-12
    assert abs(probs["RD"] - 0.25) < 1e-12


def test_simulate_counts_means():
    rho = density(PHI_PLUS)
    settings = standard_settings()
    rng = np.random.default_rng(11)
    n_rep, n_scale, bg, dur = 400, 1000.0, 0.5, 10.0
    totals = np.zeros(len(settings))
    for _ in range(n_rep):
        recs = simulate_counts(rho, settings, n_scale, bg, dur, rng)
        totals += [r.count for r in recs]
    means = totals / n_rep
    for s, m in zip(settings, means):
        expected = n_scale * float(np.real(np.trace(s.projector @ rho))) + bg * dur
        sigma = math.sqrt(expected / n_rep)
        assert abs(m - expected) < 5.0 * sigma


def test_simulate_counts_validation():
    rho = density(PHI_PLUS)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        simulate_counts(rho, standard_settings(), 0.0, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        simulate_counts(rho, standard_settings(), 10.0, -1.0, 1.0, rng)


def test_subtract_background_arithmetic():
    settings = standard_settings()[:2]
    recs = [CountRecord(settings[0], 25, 100.0), CountRecord(settings[1], 10, 100.0)]
    out = subtract_background(recs, 0.2)
    assert out[0].count == 5  # 25 - round(0.2 * 100)
    assert out[1].count == 0  # floored at zero
    assert out[0].duration_s == 100.0
    with pytest.raises(ValueError):
        subtract_background(recs, -0.1)


def test_count_record_validation():
    s = standard_settings()[0]
    with pytest.raises(ValueError):
        CountRecord(s, -1, 1.0)
    with pytest.raises(ValueError):
        CountRecord(s, 1, 0.0)


def test_mle_recovers_bell_state_exactly():
    settings = standard_settings()
    counts = _exact_counts(density(PHI_PLUS), settings)
    result = mle_reconstruct(settings=settings, counts=counts)
    assert result.converged
    assert trace_distance(result.rho, density(PHI_PLUS)) < 1e-8


def test_mle_recovers_random_states():
    rng = np.random.default_rng(314)
    settings = standard_settings()
    for _ in range(5):
        rho = _random_state(rng)
        counts = _exact_counts(rho, settings)
        result = mle_reconstruct(settings=settings, counts=counts)
        assert result.converged
        assert result.iterations <= 100_000
        assert trace_distance(result.rho, rho) < 1e-6
        # likelihood never moved downward beyond rounding slack
        assert result.min_step_gain >= -1e-10


def test_mle_on_sampled_counts_stays_physical():
    rng = np.random.default_rng(2024)
    settings = standard_settings()
    rho = density(PHI_PLUS)
    recs = simulate_counts(rho, settings, 5000.0, 0.0, 1.0, rng)
    result = mle_reconstruct(recs)
    eigs = np.linalg.eigvalsh(result.rho)
    assert eigs.min() > -1e-10
    assert abs(np.trace(result.rho).real - 1.0) < 1e-10
    f = float(np.real(PHI_PLUS.conj() @ result.rho @ PHI_PLUS))
    assert f > 0.99


def test_mle_records_and_parallel_arrays_agree():
    rng = np.random.default_rng(5150)
    settings = standard_settings()
    rho = _random_state(rng)
    recs = simulate_counts(rho, settings, 2000.0, 0.0, 1.0, rng)
    a = mle_reconstruct(recs)
    b = mle_reconstruct(settings=settings, counts=[r.count for r in recs])
    assert_allclose(a.rho, b.rho, atol=1e-14)
    assert a.iterations == b.iterations


def test_mle_input_validation():
    settings = standard_settings()
    counts = [1.0] * 16
    with pytest.raises(ValueError):
        mle_reconstruct(records=[], settings=settings, counts=counts)
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=[0.0] * 16)
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=[-1.0] + [1.0] * 15)
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings[:4], counts=counts[:4])
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=counts[:5])


def _fit_alone_tracing_damping(settings, counts, **kwargs):
    """Fit one row under a line tracer; also report whether the loop that
    damps a likelihood-losing step toward the identity ran."""
    lines, start = inspect.getsourcelines(mle_reconstruct_batch)
    target = start + next(i for i, line in enumerate(lines) if "damped = eye" in line)
    filename = mle_reconstruct_batch.__code__.co_filename
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(target)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename == filename else None)
    try:
        result = mle_reconstruct(settings=settings, counts=counts, **kwargs)
    finally:
        sys.settrace(previous)
    return result, bool(hits)


def test_mle_batch_rows_equal_single_fits_bit_for_bit():
    # On these 16 random settings the fit of ``counts`` loses likelihood on
    # one plain step and damps it (seed found by search).
    rng = np.random.default_rng(30)
    settings = [MeasurementSetting(*rng.uniform(0.0, math.pi, 4)) for _ in range(16)]
    counts = rng.exponential(1.0, 16) ** 4
    index = np.arange(16)
    rows = [counts,
            np.where(index % 3 == 0, 0.0, counts),  # zero patterns, as after
            np.where(index < 5, 0.0, np.round(10.0 * counts)),  # subtraction
            index % 4.0,  # these two need more than max_iter iterations
            np.ones(16)]
    batch = mle_reconstruct_batch(settings, rows, max_iter=60)
    reversed_batch = mle_reconstruct_batch(settings, rows[::-1], max_iter=60)[::-1]
    for k, row in enumerate(rows):
        alone, damped = _fit_alone_tracing_damping(settings, row, max_iter=60)
        assert damped == (k == 0)
        for fit in (batch[k], reversed_batch[k]):
            assert np.array_equal(fit.rho, alone.rho)
            assert fit.iterations == alone.iterations
            assert fit.converged == alone.converged
            assert fit.log_likelihood == alone.log_likelihood
    assert [fit.converged for fit in batch] == [True, True, True, False, False]
    assert batch[3].iterations == batch[4].iterations == 60
    assert len({fit.iterations for fit in batch[:3]}) == 3


def test_mle_batch_input_validation():
    settings = standard_settings()
    good = _exact_counts(density(PHI_PLUS), settings, scale=100.0)
    for bad in ([0.0] * 16, [-1.0] + [1.0] * 15):
        with pytest.raises(ValueError):
            mle_reconstruct_batch(settings, [good, bad])
    with pytest.raises(ValueError):
        mle_reconstruct_batch(settings, [good[:15]])
    with pytest.raises(ValueError):
        mle_reconstruct_batch(settings, good)
    assert mle_reconstruct_batch(settings, np.empty((0, 16))) == []


def test_records_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    settings = standard_settings()
    recs = simulate_counts(density(PHI_PLUS), settings, 500.0, 0.2, 50.0, rng)
    path = tmp_path / "counts.csv"
    save_records(recs, path)
    loaded = load_records(path)
    assert len(loaded) == 16
    for orig, back in zip(recs, loaded):
        assert back.count == orig.count
        assert back.duration_s == orig.duration_s
        for attr in ("qwp_a", "hwp_a", "qwp_b", "hwp_b"):
            assert abs(getattr(back.setting, attr) - getattr(orig.setting, attr)) < 1e-12
        assert_allclose(back.setting.projector, orig.setting.projector, atol=1e-12)


def test_density_matrix_json_roundtrip():
    rng = np.random.default_rng(12)
    rho = _random_state(rng)
    back = density_matrix_from_json(density_matrix_to_json(rho))
    assert_allclose(back, rho, atol=1e-15)

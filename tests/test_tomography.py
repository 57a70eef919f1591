"""Measurement settings, count simulation, and maximum-likelihood fitting.

The reconstruction check feeds exact outcome probabilities in as "counts"
(the fitter accepts unrounded values), so the unique likelihood optimum is
the true state and any distance from it is pure solver error.
"""

import inspect
import json
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim import tomography
from qfcsim.qubits import (KET_D, KET_H, KET_R, KET_V, PHI_PLUS, density)
from qfcsim.tomography import (
    ARM_SCHEDULE,
    CountRecord,
    MeasurementSetting,
    analysis_ket,
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


def _random_state(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
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
    # rank-deficient states put the optimum on the boundary of the state set,
    # where a fit that stops early lands furthest from it
    rng = np.random.default_rng(314)
    settings = standard_settings()
    for rank in [4] * 5 + [3, 2, 1] * 10:
        rho = _random_state(rng, rank)
        counts = _exact_counts(rho, settings)
        result = mle_reconstruct(settings=settings, counts=counts)
        assert result.converged
        assert result.iterations <= 100_000
        assert trace_distance(result.rho, rho) <= 1e-6


def test_mle_on_sampled_counts_stays_physical():
    rng = np.random.default_rng(2024)
    settings = standard_settings()
    rho = density(PHI_PLUS)
    recs = simulate_counts(rho, settings, 5000.0, 0.0, 1.0, rng)
    result = mle_reconstruct(settings, [r.count for r in recs])
    eigs = np.linalg.eigvalsh(result.rho)
    assert eigs.min() > -1e-10
    assert abs(np.trace(result.rho).real - 1.0) < 1e-10
    f = float(np.real(PHI_PLUS.conj() @ result.rho @ PHI_PLUS))
    assert f > 0.99


def test_mle_input_validation():
    settings = standard_settings()
    counts = [1.0] * 16
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=[0.0] * 16)
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=[-1.0] + [1.0] * 15)
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings[:4], counts=counts[:4])
    with pytest.raises(ValueError):
        mle_reconstruct(settings=settings, counts=counts[:5])


def _fit_alone_tracing_steps(settings, counts, **kwargs):
    """Fit one row under a line tracer; also report how often its step length
    was halved and on how many iterations its momentum restarted."""
    code = mle_reconstruct_batch.__code__
    lines, start = inspect.getsourcelines(mle_reconstruct_batch)
    halve, restart = (start + next(i for i, line in enumerate(lines) if text in line)
                      for text in ("step[stalled] *= 0.5", "theta[restart] = 1.0"))
    seen = {halve: 0, restart: 0}

    def local(frame, event, arg):
        if event == "line" and frame.f_code is code and frame.f_lineno in seen:
            hit = frame.f_lineno == halve or frame.f_locals["restart"].any()
            seen[frame.f_lineno] += int(hit)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = mle_reconstruct(settings, counts, **kwargs)
    finally:
        sys.settrace(previous)
    return result, seen[halve], seen[restart]


def test_mle_batch_rows_equal_single_fits_bit_for_bit():
    # On these 16 random settings the rows halve their step lengths different
    # numbers of times, restart their momentum, and either converge at
    # different iterations or stop at max_iter (seed found by search).
    rng = np.random.default_rng(31)
    settings = [MeasurementSetting(*rng.uniform(0.0, math.pi, 4)) for _ in range(16)]
    counts = rng.exponential(1.0, 16) ** 4
    index = np.arange(16)
    rows = [counts,
            np.where(index % 3 == 0, 0.0, counts),  # zero patterns, as after
            np.where(index < 5, 0.0, np.round(10.0 * counts)),  # subtraction
            index % 4.0,
            np.ones(16)]
    batch = mle_reconstruct_batch(settings, rows, max_iter=250)
    reversed_batch = mle_reconstruct_batch(settings, rows[::-1], max_iter=250)[::-1]
    halvings, restarts = [], []
    for k, row in enumerate(rows):
        alone, halved, restarted = _fit_alone_tracing_steps(settings, row, max_iter=250)
        halvings.append(halved)
        restarts.append(restarted)
        for fit in (batch[k], reversed_batch[k]):
            assert np.array_equal(fit.rho, alone.rho)
            assert fit.iterations == alone.iterations
            assert fit.converged == alone.converged
            assert fit.log_likelihood == alone.log_likelihood
    # rows 0, 1 and 4 need more than max_iter iterations
    assert [fit.converged for fit in batch] == [False, False, True, True, False]
    assert batch[0].iterations == batch[1].iterations == batch[4].iterations == 250
    assert batch[2].iterations != batch[3].iterations
    assert len(set(halvings)) >= 3
    assert min(restarts) >= 1


def test_mle_row_whose_step_bound_keeps_failing_stops_unconverged(monkeypatch):
    # With one try per iteration, the first step that needs a halving stalls
    # the row (iteration 34 here); it stops there and reports the state of
    # the step before.
    monkeypatch.setattr(tomography, "_MAX_HALVINGS", 1)
    settings = standard_settings()
    counts = _exact_counts(density(PHI_PLUS), settings)
    stalled = mle_reconstruct(settings, counts)
    assert not stalled.converged
    assert stalled.iterations > 1
    before = mle_reconstruct(settings, counts, max_iter=stalled.iterations - 1)
    assert np.array_equal(stalled.rho, before.rho)
    assert stalled.log_likelihood == before.log_likelihood


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
    recs = [
        CountRecord(MeasurementSetting(0.0, 0.0, 0.0, 0.0), 0, 0.30000000000000004),
        CountRecord(MeasurementSetting(math.pi / 4, math.pi / 8, -math.pi / 4,
                                       math.radians(-35.5)), 12, 1e-05),
        CountRecord(MeasurementSetting(0.0, math.pi / 2, 0.0, 0.0), 2**53 + 1, 1e+16),
    ]
    path = tmp_path / "counts.csv"
    save_records(recs, path)
    header = "qwp_a_deg,hwp_a_deg,qwp_b_deg,hwp_b_deg,count,duration_s\n"
    assert path.read_text() == (
        header
        + "0.0,0.0,0.0,0.0,0,0.30000000000000004\n"
        + "45.0,22.5,-45.0,-35.5,12,1e-05\n"
        + "0.0,90.0,0.0,0.0,9007199254740993,1e+16\n")
    # blank lines, comments and repeated header lines are skipped
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["\n", "# note\n", header] + lines[2:]))
    loaded = load_records(path)
    assert len(loaded) == 3
    for orig, back in zip(recs, loaded):
        assert back.count == orig.count
        assert back.duration_s == orig.duration_s
        for attr in ("qwp_a", "hwp_a", "qwp_b", "hwp_b"):
            assert abs(getattr(back.setting, attr) - getattr(orig.setting, attr)) < 1e-12
        assert_allclose(back.setting.projector, orig.setting.projector, atol=1e-12)


def test_density_matrix_json_roundtrip():
    rng = np.random.default_rng(12)
    rho = _random_state(rng)
    pairs = np.array(json.loads(json.dumps(density_matrix_to_json(rho))))
    assert pairs.shape == (4, 4, 2)
    assert_array_equal(pairs[..., 0] + 1j * pairs[..., 1], rho)

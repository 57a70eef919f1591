"""Measurement settings, count simulation, and maximum-likelihood fitting.

The reconstruction check feeds exact outcome probabilities in as "counts"
(the fitter accepts unrounded values), so the unique likelihood optimum is
the true state and any distance from it is pure solver error.
"""

import inspect
import json
import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim import tomography
from qfcsim.qubits import KET_H, KET_V, PHI_PLUS, density
from qfcsim.tomography import (
    ARM_SCHEDULE,
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

KET_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
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
    n_rep, n_scale = 400, 1000.0
    totals = np.zeros(len(settings))
    for _ in range(n_rep):
        totals += simulate_counts(rho, settings, n_scale, rng)
    means = totals / n_rep
    for s, m in zip(settings, means):
        expected = max(n_scale * float(np.real(np.trace(s.projector @ rho))), 0.0)
        sigma = math.sqrt(expected / n_rep)
        # a zero mean gives zero counts, so its sigma of 0 must hold exactly
        assert abs(m - expected) <= 5.0 * sigma


def test_simulate_counts_draws_one_scalar_poisson_per_setting():
    # The draw order is part of the reproducibility contract: the array
    # draw must give what one scalar call per setting, in setting order,
    # gives.  Phi+ at 30 counts per setting has means 0, 7.5 and 15, which
    # cover numpy's zero, small-mean and large-mean Poisson samplers.
    rho = density(PHI_PLUS)
    settings = standard_settings()
    means = [30.0 * float(np.real(np.trace(s.projector @ rho))) for s in settings]
    assert min(means) < 1e-12 and any(0.0 < m < 10.0 for m in means) and max(means) >= 10.0
    for seed in range(20):
        counts = simulate_counts(rho, settings, 30.0,
                                 np.random.Generator(np.random.Philox(seed)))
        rng = np.random.Generator(np.random.Philox(seed))
        assert counts.dtype == np.int64
        assert_array_equal(counts, [rng.poisson(max(m, 0.0)) for m in means])


def test_simulate_counts_validation():
    rho = density(PHI_PLUS)
    rng = np.random.default_rng(1)
    for n_per_setting in (0.0, -10.0):
        with pytest.raises(ValueError):
            simulate_counts(rho, standard_settings(), n_per_setting, rng)


def test_subtract_background_arithmetic():
    out = subtract_background([25, 10], 20.0)
    assert out.dtype == np.int64
    assert_array_equal(out, [5, 0])  # 25 - 20, then floored at zero
    # rows of replicates share one floor per setting; halves round to even
    assert_array_equal(subtract_background([[25, 10], [3, 40]], [20.0, 2.5]),
                       [[5, 8], [0, 38]])
    with pytest.raises(ValueError):
        subtract_background([25, 10], -10.0)
    # A floor at or above 2**63 exceeds every count, and must neither wrap
    # in the integer cast nor warn; one just below it is exact.
    top = np.iinfo(np.int64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_array_equal(subtract_background([top, 5, 0], [1e22] * 3), [0, 0, 0])
        assert_array_equal(subtract_background([top], 2.0**63), [0])
        assert_array_equal(subtract_background([top], math.inf), [0])
        assert_array_equal(subtract_background([top, 7], [2.0**63 - 1024] * 2), [1023, 0])


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
    result = mle_reconstruct(settings, simulate_counts(rho, settings, 5000.0, rng))
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
    # different iterations or stop at max_iter; row 3 starts from I/d and the
    # others from their projected linear-inversion estimates (seed and last
    # row found by search; a row of equal counts would start at its optimum).
    rng = np.random.default_rng(756)
    settings = [MeasurementSetting(*rng.uniform(0.0, math.pi, 4)) for _ in range(16)]
    counts = rng.exponential(1.0, 16) ** 4
    index = np.arange(16)
    rows = [counts,
            np.where(index % 3 == 0, 0.0, counts),  # zero patterns, as after
            np.where(index < 5, 0.0, np.round(10.0 * counts)),  # subtraction
            index % 4.0,
            counts[::-1]]
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
    identity_start = _fit_frame(settings)[2]
    starts = mle_reconstruct_batch(settings, rows, max_iter=0)
    assert [np.abs(fit.rho - identity_start).max() <= 1e-15 for fit in starts] == [
        False, False, False, True, False]


def test_mle_row_whose_step_bound_keeps_failing_stops_unconverged(monkeypatch):
    # With one try per iteration, the first step that needs a halving stalls
    # the row (iteration 6 here); it stops there and reports the state of
    # the step before.  Exact counts would start at the optimum, so these
    # are sampled.
    monkeypatch.setattr(tomography, "_MAX_HALVINGS", 1)
    settings = standard_settings()
    counts = simulate_counts(density(PHI_PLUS), settings, 1000.0, np.random.default_rng(0))
    stalled = mle_reconstruct(settings, counts)
    assert not stalled.converged
    assert stalled.iterations > 1
    before = mle_reconstruct(settings, counts, max_iter=stalled.iterations - 1)
    assert np.array_equal(stalled.rho, before.rho)
    assert stalled.log_likelihood == before.log_likelihood


def _fit_frame(settings):
    """The fit frame's map G^(1/2), its elements E_i, and the state I/d maps
    back to, G^-1 / Tr G^-1, where G is the sum of the projectors."""
    projectors = np.stack([s.projector for s in settings])
    g_inv_sqrt = tomography._inv_sqrt(projectors.sum(axis=0))
    start = g_inv_sqrt @ g_inv_sqrt
    return (np.linalg.inv(g_inv_sqrt), g_inv_sqrt @ projectors @ g_inv_sqrt,
            start / np.trace(start).real)


def test_mle_of_an_interior_optimum_is_its_linear_inversion():
    # A full-rank linear-inversion estimate matches every frequency, so it
    # is the optimum itself: the fit starts there and stops on iteration 1.
    rng = np.random.default_rng(5)
    settings = standard_settings()
    flat = np.stack([s.projector.conj().ravel() for s in settings])
    for _ in range(5):
        counts = _exact_counts(_random_state(rng), settings, scale=1000.0)
        inverted = np.linalg.lstsq(flat, counts, rcond=None)[0].reshape(4, 4)
        inverted /= np.trace(inverted).real
        result = mle_reconstruct(settings, counts)
        assert result.converged
        assert result.iterations == 1
        assert np.abs(result.rho - inverted).max() <= 1e-12


def test_mle_row_whose_start_starves_an_observed_outcome_starts_from_identity():
    # In the fit frame, a linear-inversion estimate of spectrum (1.1, 0.05,
    # -0.1, -0.05) projects onto its first eigenvector alone.  Its second
    # eigenvector lies along (tilt 0) or next to the element E_HV, so HV is
    # observed while the start gives it p = 0 up to rounding, or about 1e-8.
    # Either start would stall the fit or crawl: the row starts from I/d,
    # which maps back to G^-1 / Tr G^-1, and converges.
    settings = standard_settings()
    _, elements, identity_start = _fit_frame(settings)
    seen = np.linalg.eigh(elements[1])[1][:, -1]
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    first, v3, v4 = np.linalg.qr(m - np.outer(seen, seen.conj() @ m))[0].T
    for tilt in (0.0, 1e-4):
        psi = first + tilt * seen
        psi /= np.linalg.norm(psi)
        second = seen - psi * (psi.conj() @ seen)
        second /= np.linalg.norm(second)
        sigma = sum(w * np.outer(v, v.conj())
                    for w, v in zip((1.1, 0.05, -0.1, -0.05), (psi, second, v3, v4)))
        freqs = np.einsum("iab,ba->i", elements, sigma).real
        assert freqs.min() >= 0.0 and freqs[1] > 0.0
        start = mle_reconstruct(settings, freqs, max_iter=0)
        assert np.abs(start.rho - identity_start).max() <= 1e-15
        fit = mle_reconstruct(settings, freqs, max_iter=5000)
        assert fit.converged
        assert fit.log_likelihood > start.log_likelihood


def test_mle_fit_meets_the_optimality_conditions():
    # At the optimum sigma of the fit frame, R = sum_i f_i / p_i E_i has no
    # eigenvalue above 1 and R sigma = sigma, whichever start the fit took.
    rng = np.random.default_rng(7)
    settings = standard_settings()
    g_sqrt, elements, _ = _fit_frame(settings)
    for rank in (1, 2, 3, 4) * 3:
        counts = simulate_counts(_random_state(rng, rank), settings, 1000.0, rng)
        result = mle_reconstruct(settings, counts)
        sigma = g_sqrt @ result.rho @ g_sqrt
        sigma /= np.trace(sigma).real
        freqs = counts / counts.sum()
        probs = np.einsum("iab,ba->i", elements, sigma).real
        ratio = np.einsum("i,iab->ab", freqs / np.where(freqs > 0.0, probs, 1.0), elements)
        assert result.converged
        assert np.linalg.eigvalsh(ratio).max() <= 1.0 + 1e-6
        assert np.linalg.norm(ratio @ sigma - sigma) <= 1e-6


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
    settings = [MeasurementSetting(0.0, 0.0, 0.0, 0.0),
                MeasurementSetting(math.pi / 4, math.pi / 8, -math.pi / 4, math.radians(-35.5)),
                MeasurementSetting(0.0, math.pi / 2, 0.0, 0.0)]
    counts = np.array([0, 12, 2**53 + 1], dtype=np.int64)
    durations = np.array([0.30000000000000004, 1e-05, 1e+16])
    path = tmp_path / "counts.csv"
    save_records(settings, counts, durations, path)
    header = "qwp_a_deg,hwp_a_deg,qwp_b_deg,hwp_b_deg,count,duration_s\n"
    assert path.read_text() == (
        header
        + "0.0,0.0,0.0,0.0,0,0.30000000000000004\n"
        + "45.0,22.5,-45.0,-35.5,12,1e-05\n"
        + "0.0,90.0,0.0,0.0,9007199254740993,1e+16\n")
    # blank lines, comments and repeated header lines are skipped
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["\n", "# note\n", header] + lines[2:]))
    back_settings, back_counts, back_durations = load_records(path)
    assert back_counts.dtype == np.int64
    assert_array_equal(back_counts, counts)
    assert_array_equal(back_durations, durations)
    assert len(back_settings) == 3
    for orig, back in zip(settings, back_settings):
        for attr in ("qwp_a", "hwp_a", "qwp_b", "hwp_b"):
            assert abs(getattr(back, attr) - getattr(orig, attr)) < 1e-12
        assert_allclose(back.projector, orig.projector, atol=1e-12)


def test_density_matrix_json_roundtrip():
    rng = np.random.default_rng(12)
    rho = _random_state(rng)
    pairs = np.array(json.loads(json.dumps(density_matrix_to_json(rho))))
    assert pairs.shape == (4, 4, 2)
    assert_array_equal(pairs[..., 0] + 1j * pairs[..., 1], rho)

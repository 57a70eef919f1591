"""Coincidence counting on hand-built and simulated event streams.

The tiny hand-built streams pin the pairing arithmetic (first click per
pulse, offset pairing, window edges) without any Monte Carlo noise.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim.config import calibrated_g2_config, ExperimentConfig
from qfcsim.counting import (
    CoincidenceWindow,
    CountSummary,
    DelayHistogram,
    InsufficientEventsError,
    MIN_OPPORTUNITIES,
    count_summary,
    delay_histogram,
    g2_at_offset,
    g2_zero_from_counts,
    pair_delays,
    select_window,
)
from qfcsim.sources import (
    EventStream,
    START_CHANNEL,
    STOP_CHANNEL,
    TRIGGER_CHANNEL,
    generate_hbt_stream,
    generate_mzi_stream,
)

REP_PS = 12195.121951219512


def _toy_stream():
    """Three pulses: both clicks at pulse 0 (40 ps apart), start-only at 1,
    both at pulse 2 but 2.5 ns apart (outside a 1 ns window)."""
    rows = [
        (TRIGGER_CHANNEL, 0, 0.0),
        (START_CHANNEL, 0, 10.0),
        (STOP_CHANNEL, 0, 50.0),
        (TRIGGER_CHANNEL, 1, REP_PS),
        (START_CHANNEL, 1, REP_PS + 20.0),
        (TRIGGER_CHANNEL, 2, 2 * REP_PS),
        (START_CHANNEL, 2, 2 * REP_PS + 0.0),
        (STOP_CHANNEL, 2, 2 * REP_PS + 2500.0),
    ]
    rows.sort(key=lambda r: r[2])
    ch, pu, ts = zip(*rows)
    return EventStream(np.array(ch), np.array(pu), np.array(ts, dtype=float),
                       n_pulses=3, seed=0, rep_period=REP_PS * 1e-12)


def test_window_edges_are_inclusive():
    w = CoincidenceWindow(width=1e-9)
    inside = w.contains_ps(np.array([0.0, 499.9, -499.9, 500.0, -500.0]))
    assert inside.tolist() == [True, True, True, True, True]
    outside = w.contains_ps(np.array([500.1, -500.1]))
    assert not outside.any()
    off = CoincidenceWindow(width=2e-10, center=1e-9)
    assert off.contains_ps(np.array([1000.0])).all()
    assert not off.contains_ps(np.array([0.0])).any()
    with pytest.raises(ValueError):
        CoincidenceWindow(width=0.0)


def test_pair_delays_on_toy_stream():
    stream = _toy_stream()
    pulses, delays, t_start = pair_delays(stream)
    assert_array_equal(pulses, [0, 2])
    assert_allclose(delays, [40.0, 2500.0])
    assert_allclose(t_start, [10.0, 2 * REP_PS])


def test_pair_delays_with_offset():
    # start at pulse 0 pairs with stop at pulse 2 under offset 2, and the
    # two-pulse separation is removed from the delay
    stream = _toy_stream()
    pulses, delays, _ = pair_delays(stream, offset=2)
    assert_array_equal(pulses, [0])
    assert_allclose(delays, [2 * REP_PS + 2500.0 - 10.0 - 2 * REP_PS])


def test_count_summary_on_toy_stream():
    stream = _toy_stream()
    summary, opportunities = count_summary(stream, CoincidenceWindow(1e-9))
    assert summary == CountSummary(3, 3, 2, 1)
    assert opportunities == 3
    _, opportunities = count_summary(stream, CoincidenceWindow(1e-9), offset=1)
    assert opportunities == 2


def test_g2_error_formula():
    s = CountSummary(10_000, 400, 380, 12)
    value, err = g2_zero_from_counts(s)
    expected = 10_000 * 12 / (400 * 380)
    assert abs(value - expected) < 1e-12
    rel = 1.0 / 10_000 + 1.0 / 400 + 1.0 / 380
    var = expected ** 2 * rel + (10_000 / (400 * 380)) ** 2 * 12
    assert abs(err - math.sqrt(var)) < 1e-12


def test_g2_insufficient_counts():
    with pytest.raises(InsufficientEventsError):
        g2_zero_from_counts(CountSummary(100, 0, 5, 0))
    # at offset 0 the opportunities are the triggers: the same 100 floor holds
    with pytest.raises(InsufficientEventsError):
        g2_zero_from_counts(CountSummary(MIN_OPPORTUNITIES - 1, 40, 40, 2))
    value, _ = g2_zero_from_counts(CountSummary(MIN_OPPORTUNITIES, 40, 40, 2))
    assert value == MIN_OPPORTUNITIES * 2 / (40 * 40)
    stream = _toy_stream()
    for offset in (0, 1):
        with pytest.raises(InsufficientEventsError):
            g2_at_offset(stream, offset, CoincidenceWindow(1e-9))


def test_count_summary_validation():
    with pytest.raises(ValueError):
        CountSummary(10, 5, 5, 6)
    with pytest.raises(ValueError):
        CountSummary(-1, 0, 0, 0)
    s = CountSummary(7, 3, 2, 1)
    assert CountSummary.from_text(s.to_text()) == s


def test_delay_histogram_zero_centered_bins():
    stream = _toy_stream()
    hist = delay_histogram(stream, bin_width=50e-12)
    assert hist.mass == 2
    # 40 ps rounds to bin center 50 ps, 2500 ps to its own bin
    assert hist.counts[np.where(hist.centers_ps == 50.0)][0] == 1
    assert hist.counts[np.where(hist.centers_ps == 2500.0)][0] == 1
    csv = hist.to_csv()
    assert csv.startswith("delay_ps,count\n")
    assert "50.0,1" in csv
    with pytest.raises(ValueError):
        delay_histogram(stream, bin_width=0.0)


def test_histogram_mass_equals_pairs():
    cfg = calibrated_g2_config(seed=21)
    cfg.n_pulses = 200_000
    stream = generate_hbt_stream(cfg)
    _, delays, _ = pair_delays(stream)
    hist = delay_histogram(stream)
    assert hist.mass == len(delays)


def test_g2_at_offset_near_one_for_uncorrelated():
    # distant pulses share no physics, so the sideband estimator sits at 1
    cfg = calibrated_g2_config(seed=42)
    cfg.n_pulses = 2_000_000
    stream = generate_hbt_stream(cfg)
    window = CoincidenceWindow(cfg.coincidence_window)
    values = [g2_at_offset(stream, off, window) for off in (-3, -2, 2, 3)]
    assert abs(np.mean(values) - 1.0) < 0.35


def test_select_window_keeps_central_peak():
    cfg = ExperimentConfig(
        source_kind="single_photon",
        pump_power=(math.pi / 2.0) ** 2 / 3.6,
        eff_peak=1.0, extra_transmittance=1.0,
        noise_coeff=0.0, pump_linewidth=0.0,
        det1_efficiency=1.0, det1_dark=0.0,
        det2_efficiency=1.0, det2_dark=0.0,
        n_pulses=100_000, seed=9,
    )
    stream = generate_mzi_stream(cfg)
    window = CoincidenceWindow(cfg.postselect_window)
    kept = select_window(stream, window, start_channel=TRIGGER_CHANNEL,
                         stop_channel=START_CHANNEL)
    _, delays, _ = pair_delays(kept, TRIGGER_CHANNEL, START_CHANNEL)
    half_ps = cfg.postselect_window * 1e12 / 2.0
    assert len(delays) > 0
    assert np.max(np.abs(delays)) <= half_ps
    # the +-1 ns side peaks are gone entirely
    _, all_delays, _ = pair_delays(stream, TRIGGER_CHANNEL, START_CHANNEL)
    assert np.max(np.abs(all_delays)) > 500.0


def test_select_window_is_idempotent():
    cfg = calibrated_g2_config(seed=77)
    cfg.n_pulses = 100_000
    stream = generate_hbt_stream(cfg)
    window = CoincidenceWindow(cfg.coincidence_window)
    once = select_window(stream, window)
    twice = select_window(once, window)
    assert_array_equal(once.channels, twice.channels)
    assert_array_equal(once.pulse_indices, twice.pulse_indices)
    assert_array_equal(once.timestamps_ps, twice.timestamps_ps)
    # trigger events pass through untouched
    n_trig_before = int(np.sum(stream.channels == TRIGGER_CHANNEL))
    n_trig_after = int(np.sum(once.channels == TRIGGER_CHANNEL))
    assert n_trig_before == n_trig_after

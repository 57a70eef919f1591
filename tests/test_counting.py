"""Coincidence counting on hand-built and simulated event streams.

The tiny hand-built streams pin the pairing arithmetic (first click per
pulse, offset pairing, window edges) without any Monte Carlo noise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim.config import calibrated_g2_config, ExperimentConfig
from qfcsim.counting import (
    CoincidenceWindow,
    CountSummary,
    DelayHistogram,
    InsufficientEventsError,
    MAX_HISTOGRAM_BINS,
    MIN_OPPORTUNITIES,
    count_summary,
    delay_histogram,
    first_clicks,
    g2_at_offset,
    g2_zero_from_counts,
    opportunities,
    pair_delays,
    select_window,
    sideband_mean_from_counts,
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
    with pytest.raises(ValueError):
        CoincidenceWindow(width=0.0)


def test_pair_delays_on_toy_stream():
    stream = _toy_stream()
    pulses, delays, t_start = pair_delays(first_clicks(stream))
    assert_array_equal(pulses, [0, 2])
    assert_allclose(delays, [40.0, 2500.0])
    assert_allclose(t_start, [10.0, 2 * REP_PS])


def test_pair_delays_with_offset():
    # start at pulse 0 pairs with stop at pulse 2 under offset 2, and the
    # two-pulse separation is removed from the delay
    stream = _toy_stream()
    pulses, delays, _ = pair_delays(first_clicks(stream), offset=2)
    assert_array_equal(pulses, [0])
    assert_allclose(delays, [2 * REP_PS + 2500.0 - 10.0 - 2 * REP_PS])


def test_first_clicks_extracts_each_channel_once(monkeypatch):
    # the time-bin histogram uses the trigger as its start channel
    stream = _toy_stream()
    calls = []
    extract = EventStream.first_event_times
    monkeypatch.setattr(EventStream, "first_event_times",
                        lambda self, ch: calls.append(ch) or extract(self, ch))
    clicks = first_clicks(stream, TRIGGER_CHANNEL, START_CHANNEL)
    assert sorted(calls) == [TRIGGER_CHANNEL, START_CHANNEL]
    assert_array_equal(clicks.trigger_pulses, [0, 1, 2])
    assert_array_equal(clicks.start_pulses, clicks.trigger_pulses)
    assert_array_equal(clicks.start_times, [0.0, REP_PS, 2 * REP_PS])
    assert_array_equal(clicks.stop_pulses, [0, 1, 2])


def test_count_summary_on_toy_stream():
    stream = _toy_stream()
    clicks = first_clicks(stream)
    summary, delays = count_summary(clicks, CoincidenceWindow(1e-9))
    assert summary == CountSummary(3, 3, 2, 1)
    assert_array_equal(delays, pair_delays(clicks)[1])
    assert opportunities(clicks, 0) == 3
    assert opportunities(clicks, 1) == opportunities(clicks, -1) == 2


def test_g2_error_formula():
    s = CountSummary(10_000, 400, 380, 12)
    value, err = g2_zero_from_counts(s)
    expected = 10_000 * 12 / (400 * 380)
    assert abs(value - expected) < 1e-12
    rel = 1.0 / 10_000 + 1.0 / 400 + 1.0 / 380
    var = expected ** 2 * rel + (10_000 / (400 * 380)) ** 2 * 12
    assert abs(err - math.sqrt(var)) < 1e-12


def test_sideband_mean_formula():
    s = CountSummary(10_000, 400, 380, 12)
    value, err = sideband_mean_from_counts(s, [(16, 9_999), (14, 9_998)])
    expected = 30 / sum(o * 400 * 380 / 10_000 ** 2 for o in (9_999, 9_998))
    assert value == pytest.approx(expected, rel=1e-15)
    rel = 1.0 / 30 + 1.0 / 400 + 1.0 / 380
    assert err == pytest.approx(expected * math.sqrt(rel), rel=1e-15)
    # nothing estimated, or no coincidence in any sideband: no estimate
    for sidebands in ([], [(0, 9_999), (0, 9_998)]):
        assert all(math.isnan(v) for v in sideband_mean_from_counts(s, sidebands))


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
            g2_at_offset(first_clicks(stream), offset, CoincidenceWindow(1e-9))


def test_count_summary_validation():
    with pytest.raises(ValueError):
        CountSummary(10, 5, 5, 6)
    with pytest.raises(ValueError):
        CountSummary(-1, 0, 0, 0)


def test_delay_histogram_zero_centered_bins(tmp_path):
    _, delays, _ = pair_delays(first_clicks(_toy_stream()))
    hist = delay_histogram(delays, bin_width=50e-12)
    assert hist.mass == 2
    # 40 ps rounds to bin center 50 ps, 2500 ps to its own bin
    assert hist.counts[np.where(hist.centers_ps == 50.0)][0] == 1
    assert hist.counts[np.where(hist.centers_ps == 2500.0)][0] == 1
    path = tmp_path / "histogram.csv"
    hist.save(path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["delay_ps,count", "50.0,1", "100.0,0"]
    assert lines[-1] == "2500.0,1" and len(lines) == 51
    with pytest.raises(ValueError):
        delay_histogram(delays, bin_width=0.0)


def test_delay_histogram_refuses_unbounded_spans():
    # the widest span allowed is MAX_HISTOGRAM_BINS bins, edge bins included
    width_ps = 50.0
    edge = np.array([0.0, (MAX_HISTOGRAM_BINS - 1) * width_ps])
    assert delay_histogram(edge, bin_width=50e-12).counts.size == MAX_HISTOGRAM_BINS
    for delays, bin_width in ((edge + np.array([0.0, width_ps]), 50e-12),
                              (np.array([0.0, 1e16]), 50e-12),
                              (np.array([40.0]), 1e-312),  # bin index past int64
                              (np.array([0.0, np.nan]), 50e-12),
                              (np.array([0.0, np.inf]), 50e-12)):
        with pytest.raises(ValueError, match="do not fit"):
            delay_histogram(delays, bin_width=bin_width)


def test_histogram_mass_equals_pairs():
    cfg = calibrated_g2_config(seed=21)
    cfg.n_pulses = 200_000
    stream = generate_hbt_stream(cfg)
    clicks = first_clicks(stream)
    _, delays, _ = pair_delays(clicks)
    hist = delay_histogram(delays)
    assert hist.mass == len(delays)


def test_g2_at_offset_near_one_for_uncorrelated():
    # distant pulses share no physics, so the sideband estimator sits at 1
    cfg = calibrated_g2_config(seed=42)
    cfg.n_pulses = 2_000_000
    stream = generate_hbt_stream(cfg)
    window = CoincidenceWindow(cfg.coincidence_window)
    clicks = first_clicks(stream)
    values = [g2_at_offset(clicks, off, window) for off in (-3, -2, 2, 3)]
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
    _, delays, _ = pair_delays(first_clicks(kept, TRIGGER_CHANNEL, START_CHANNEL))
    half_ps = cfg.postselect_window * 1e12 / 2.0
    assert len(delays) > 0
    assert np.max(np.abs(delays)) <= half_ps
    # the +-1 ns side peaks are gone entirely
    _, all_delays, _ = pair_delays(first_clicks(stream, TRIGGER_CHANNEL, START_CHANNEL))
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


def test_counting_edges_give_zero_counts():
    window = CoincidenceWindow(1e-9)
    # start clicks but no stop clicks: nothing pairs at any offset
    no_stop = EventStream(
        np.array([TRIGGER_CHANNEL, START_CHANNEL, TRIGGER_CHANNEL, START_CHANNEL]),
        np.array([0, 0, 1, 1]), np.array([0.0, 10.0, REP_PS, REP_PS + 10.0]),
        n_pulses=2, seed=0, rep_period=REP_PS * 1e-12)
    empty = EventStream(np.zeros(0), np.zeros(0), np.zeros(0),
                        n_pulses=5, seed=0, rep_period=REP_PS * 1e-12)
    for stream, singles in ((no_stop, CountSummary(2, 2, 0, 0)),
                            (empty, CountSummary(0, 0, 0, 0))):
        clicks = first_clicks(stream)
        for offset in (-1, 0, 1):
            assert count_summary(clicks, window, offset)[0] == singles
            assert len(pair_delays(clicks, offset)[1]) == 0
        assert delay_histogram(pair_delays(clicks)[1]).mass == 0
    assert opportunities(first_clicks(empty), 0) == 0
    # an offset past the end of the run has no trigger pair to count
    toy = first_clicks(_toy_stream())
    for offset in (3, -3, 1000):
        summary, _ = count_summary(toy, window, offset)
        assert opportunities(toy, offset) == 0 and summary.n_coincidence == 0


def _reference_first(stream, channel):
    """The sort-based first-click extraction the O(n) path replaced."""
    mask = stream.channels == channel
    uniq, first = np.unique(stream.pulse_indices[mask], return_index=True)
    return uniq, stream.timestamps_ps[mask][first]


def _reference_counts(stream, window, offset):
    """Counts, opportunities and (pulses, delays, start times) by the
    np.unique + intersect1d code the first-click index replaced."""
    trig, _ = _reference_first(stream, TRIGGER_CHANNEL)
    p_start, t_start = _reference_first(stream, START_CHANNEL)
    p_stop, t_stop = _reference_first(stream, STOP_CHANNEL)
    common, i_start, i_stop = np.intersect1d(
        p_start, p_stop - offset, assume_unique=True, return_indices=True)
    delays = t_stop[i_stop] - t_start[i_start] - offset * (stream.rep_period * 1e12)
    summary = CountSummary(len(trig), len(p_start), len(p_stop),
                           int(np.count_nonzero(window.contains_ps(delays))))
    opportunities = len(np.intersect1d(trig, trig - offset, assume_unique=True))
    return summary, opportunities, (common, delays, t_start[i_start])


@st.composite
def _small_streams(draw):
    """Time-sorted streams of a few pulses, 1 ns apart.  Jitter of 30 ps
    keeps each channel's pulses in order; 3 ns of it puts them out of
    order.  Channels may be empty and pulses may click more than once."""
    n_pulses = draw(st.integers(1, 12))
    jitter = draw(st.sampled_from([30, 3000]))
    channels = draw(st.sets(st.sampled_from([TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL]),
                            min_size=1))
    events = draw(st.lists(st.tuples(st.sampled_from(sorted(channels)),
                                     st.integers(0, n_pulses - 1),
                                     st.integers(-jitter, jitter)), max_size=40))
    rows = sorted(((ch, p, p * 1000.0 + j) for ch, p, j in events), key=lambda r: r[2])
    ch, pu, ts = (np.array(col) for col in zip(*rows)) if rows else (np.zeros(0),) * 3
    return EventStream(ch, pu, ts, n_pulses=n_pulses, seed=0, rep_period=1e-9)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_small_streams())
def test_first_click_index_equals_sort_based_reference(stream):
    window = CoincidenceWindow(1e-9)
    clicks = first_clicks(stream)
    for offset in range(-5, 6):
        summary, pairs, paired = _reference_counts(stream, window, offset)
        got_summary, got_delays = count_summary(clicks, window, offset)
        assert (got_summary, opportunities(clicks, offset)) == (summary, pairs)
        assert_array_equal(got_delays, paired[1], strict=True)
        for got, want in zip(pair_delays(clicks, offset), paired):
            assert_array_equal(got, want, strict=True)
    _, _, (_, delays, _) = _reference_counts(stream, window, 0)
    hist = delay_histogram(count_summary(clicks, window)[1], bin_width=50e-12)
    bins = np.rint(delays / 50.0).astype(np.int64)
    if len(bins):
        assert_array_equal(hist.centers_ps, np.arange(bins.min(), bins.max() + 1) * 50.0)
        assert hist.counts.tolist() == [int(np.sum(bins == b))
                                        for b in range(bins.min(), bins.max() + 1)]
    else:
        assert hist.counts.size == hist.centers_ps.size == 0

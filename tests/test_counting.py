"""Coincidence counting on hand-built and simulated event streams.

The tiny hand-built streams pin the pairing arithmetic (first click per
pulse, offset pairing, window edges) without any Monte Carlo noise.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim import convert_timebin_qubit, counting, sources, subtract_background
from qfcsim.config import PRESETS, ExperimentConfig
from qfcsim.counting import (
    CoincidenceWindow,
    CountSummary,
    DelayHistogram,
    FirstClicks,
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


def stream_of(channels, pulses, times, n_pulses, seed=0, rep_period=1e-9):
    """A one-chunk stream of the time-sorted events in these columns, split
    by channel as ``EventStream.load`` splits a block."""
    channels = np.asarray(channels, dtype=np.int16)
    pulses, times = np.asarray(pulses, dtype=np.int64), np.asarray(times, dtype=float)
    return EventStream([{int(ch): (pulses[channels == ch], times[channels == ch])
                         for ch in np.unique(channels)}], n_pulses, seed, rep_period)


def columns_of(stream):
    """The time-sorted (channel, pulse, time in ps) columns of a stream's
    clicks: its ``sorted_blocks`` joined."""
    empty = (np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.int64), np.zeros(0))
    return tuple(map(np.concatenate, zip(empty, *stream.sorted_blocks())))


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
    return stream_of(*zip(*rows), n_pulses=3, rep_period=REP_PS * 1e-12)


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
    delays, _ = pair_delays(first_clicks(stream))
    assert len(delays) == 2
    assert_allclose(delays, [40.0, 2500.0])


def test_pair_delays_with_offset():
    # start at pulse 0 pairs with stop at pulse 2 under offset 2, and the
    # two-pulse separation is removed from the delay
    stream = _toy_stream()
    delays, _ = pair_delays(first_clicks(stream), offset=2)
    assert len(delays) == 1
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
    assert_array_equal(delays, pair_delays(clicks)[0])
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


@st.composite
def _sufficient_counts(draw):
    """Counts up to 2^40 that give an estimate: T >= 100, S1, S2 >= 1 and
    C <= min(S1, S2)."""
    n_start = draw(st.integers(1, 2**40))
    n_stop = draw(st.integers(1, 2**40))
    return CountSummary(draw(st.integers(MIN_OPPORTUNITIES, 2**40)), n_start, n_stop,
                        draw(st.integers(0, min(n_start, n_stop))))


@settings(derandomize=True, max_examples=500, database=None, deadline=None)
@given(_sufficient_counts())
def test_g2_zero_equals_its_closed_form_bit_for_bit(s):
    # g2(0) is the offset formula T^2 C / (T S1 S2) at T opportunities;
    # int/int division rounds once, so that is the float of T C / (S1 S2)
    assert g2_zero_from_counts(s)[0] == s.n_trigger * s.n_coincidence / (s.n_start * s.n_stop)


def test_count_summary_validation():
    with pytest.raises(ValueError):
        CountSummary(10, 5, 5, 6)
    with pytest.raises(ValueError):
        CountSummary(-1, 0, 0, 0)


def test_delay_histogram_zero_centered_bins(tmp_path):
    delays, _ = pair_delays(first_clicks(_toy_stream()))
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


def test_public_guards_refuse_nan():
    # every range guard is written so that NaN fails it: a NaN window counts
    # nothing, a NaN bin width makes an empty or misleadingly refused
    # histogram, a NaN floor zeroes every count, and a NaN noise weight makes
    # a NaN state (a weight outside [0, 1] mixes no state either)
    nan = float("nan")
    with pytest.raises(ValueError):
        CoincidenceWindow(nan)
    for delays in (np.zeros(0), np.array([0.0, 40.0])):
        with pytest.raises(ValueError, match="bin_width"):
            delay_histogram(delays, bin_width=nan)
    with pytest.raises(ValueError):
        subtract_background([25, 10], nan)
    for weight in (nan, -0.5, 1.5):
        with pytest.raises(ValueError):
            convert_timebin_qubit(np.eye(4) / 4.0, 1.0, weight)


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
    cfg = PRESETS["calibrated_g2"](seed=21)
    cfg.n_pulses = 200_000
    clicks = first_clicks(generate_hbt_stream(cfg))
    delays, _ = pair_delays(clicks)
    hist = delay_histogram(delays)
    assert hist.mass == len(delays)


def test_g2_at_offset_near_one_for_uncorrelated():
    # distant pulses share no physics, so the sideband estimator sits at 1
    cfg = PRESETS["calibrated_g2"](seed=42)
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
    delays, _ = pair_delays(first_clicks(kept, TRIGGER_CHANNEL, START_CHANNEL))
    half_ps = cfg.postselect_window * 1e12 / 2.0
    assert len(delays) > 0
    assert np.max(np.abs(delays)) <= half_ps
    # the +-1 ns side peaks are gone entirely
    all_delays, _ = pair_delays(first_clicks(stream, TRIGGER_CHANNEL, START_CHANNEL))
    assert np.max(np.abs(all_delays)) > 500.0


def test_select_window_is_idempotent():
    cfg = PRESETS["calibrated_g2"](seed=77)
    cfg.n_pulses = 100_000
    stream = generate_hbt_stream(cfg)
    window = CoincidenceWindow(cfg.coincidence_window)
    once = select_window(stream, window)
    twice = select_window(once, window)
    once, twice = columns_of(once), columns_of(twice)
    for got, want in zip(twice, once):
        assert_array_equal(got, want, strict=True)
    assert np.all(np.diff(once[2]) >= 0.0)
    # trigger events pass through untouched
    channels, pulses, times = columns_of(stream)
    trigger = channels == TRIGGER_CHANNEL
    assert_array_equal(once[1][once[0] == TRIGGER_CHANNEL], pulses[trigger])
    assert_array_equal(once[2][once[0] == TRIGGER_CHANNEL], times[trigger])


def test_counting_edges_give_zero_counts():
    window = CoincidenceWindow(1e-9)
    # start clicks but no stop clicks: nothing pairs at any offset
    no_stop = stream_of([TRIGGER_CHANNEL, START_CHANNEL, TRIGGER_CHANNEL, START_CHANNEL],
                        [0, 0, 1, 1], [0.0, 10.0, REP_PS, REP_PS + 10.0],
                        n_pulses=2, rep_period=REP_PS * 1e-12)
    empty = EventStream([], n_pulses=5, seed=0, rep_period=REP_PS * 1e-12)
    for stream, singles in ((no_stop, CountSummary(2, 2, 0, 0)),
                            (empty, CountSummary(0, 0, 0, 0))):
        clicks = first_clicks(stream)
        for offset in (-1, 0, 1):
            assert count_summary(clicks, window, offset)[0] == singles
            assert len(pair_delays(clicks, offset)[0]) == 0
        assert delay_histogram(pair_delays(clicks)[0]).mass == 0
    assert opportunities(first_clicks(empty), 0) == 0
    # an offset past the end of the run has no trigger pair to count
    toy = first_clicks(_toy_stream())
    for offset in (3, -3, 1000):
        summary, _ = count_summary(toy, window, offset)
        assert opportunities(toy, offset) == 0 and summary.n_coincidence == 0


def _reference_first(columns, channel):
    """The first clicks by ``np.unique``, as the index once took them, from
    the time-sorted (channel, pulse, time) columns of a stream."""
    channels, pulses, times = columns
    mask = channels == channel
    uniq, first = np.unique(pulses[mask], return_index=True)
    return uniq, times[mask][first]


def _documented(pulses, stream):
    """``pulses`` in the extractor's documented dtype: uint32 while every
    pulse index of ``stream`` fits, int64 past 2**32 pulses."""
    return pulses.astype(np.uint32 if stream.n_pulses <= 2**32 else np.int64)


def _reference_counts(columns, rep_period, window, offset):
    """Counts, opportunities and delays by the np.unique + intersect1d code
    the first-click index replaced."""
    trig, _ = _reference_first(columns, TRIGGER_CHANNEL)
    p_start, t_start = _reference_first(columns, START_CHANNEL)
    p_stop, t_stop = _reference_first(columns, STOP_CHANNEL)
    _, i_start, i_stop = np.intersect1d(
        p_start, p_stop - offset, assume_unique=True, return_indices=True)
    delays = t_stop[i_stop] - t_start[i_start] - offset * (rep_period * 1e12)
    summary = CountSummary(len(trig), len(p_start), len(p_stop),
                           int(np.count_nonzero(window.contains_ps(delays))))
    opportunities = len(np.intersect1d(trig, trig - offset, assume_unique=True))
    return summary, opportunities, delays


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.one_of(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 2**40))))
@example(set())
@example({7})
@example(set(range(5000)))  # a run longer than every offset: every lag matches
# holes make a lag shorter than its offset; both cross the count's 2^16-entry blocks
@example(set(range(90_000)) - set(range(0, 90_000, 7)))
@example({3, 15})  # offset 12 reaches past the last lag of a two-pulse list
def test_opportunities_equal_intersection(triggers):
    trig = np.array(sorted(triggers), dtype=np.int64)
    none = np.zeros(0)
    clicks = FirstClicks(trig, none.astype(np.int64), none, none.astype(np.int64), none,
                         rep_ps=REP_PS)
    for offset in range(-12, 13):
        want = len(np.intersect1d(trig, trig + abs(offset), assume_unique=True))
        assert opportunities(clicks, offset) == want


@pytest.mark.parametrize("generate", [generate_hbt_stream, generate_mzi_stream])
def test_first_event_times_equal_sort_based_reference(generate):
    # both generators give at most one click per pulse and channel, even
    # under pump noise; a loaded stream may repeat a pulse, which
    # test_first_event_times_picks_earliest and _small_streams cover
    cfg = PRESETS["calibrated_g2"](seed=41)
    cfg.n_pulses, cfg.mean_pairs, cfg.noise_coeff = 100_000, 0.2, 40.0
    clicks = generate(cfg)
    generated = {ch: clicks.first_event_times(ch)
                 for ch in (TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL)}
    columns = columns_of(clicks)
    # the sorted stream in one chunk, as a file of one block loads
    stream = stream_of(*columns, n_pulses=cfg.n_pulses)
    repeated = []
    for channel in (TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL):
        pulses = columns[1][columns[0] == channel]
        repeated.append(len(np.unique(pulses)) < len(pulses))
        pulses, times = _reference_first(columns, channel)
        got_pulses, got_times = stream.first_event_times(channel)
        assert_array_equal(got_pulses, _documented(pulses, stream), strict=True)
        assert_array_equal(got_times, times, strict=True)
        assert_array_equal(stream.first_event_times(channel, times=False), got_pulses,
                           strict=True)
        for got, want in zip(generated[channel], (got_pulses, got_times)):
            assert_array_equal(got, want, strict=True)
    assert repeated == [False, False, False]


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
    return stream_of(*(zip(*rows) if rows else ([],) * 3), n_pulses=n_pulses)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_small_streams())
def test_first_click_index_equals_sort_based_reference(stream):
    window = CoincidenceWindow(1e-9)
    clicks = first_clicks(stream)
    columns = columns_of(stream)
    for offset in range(-5, 6):
        summary, pairs, delays = _reference_counts(columns, stream.rep_period, window, offset)
        assert opportunities(clicks, offset) == pairs
        # blocks down to one start entry put join block edges inside these short lists
        for block in (1, 2, 3, 7, counting._JOIN_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(counting, "_JOIN_BLOCK", block)
                got_summary, got_delays = count_summary(clicks, window, offset)
            assert got_summary == summary
            assert_array_equal(got_delays, delays, strict=True)
    _, _, delays = _reference_counts(columns, stream.rep_period, window, 0)
    hist = delay_histogram(count_summary(clicks, window)[1], bin_width=50e-12)
    bins = np.rint(delays / 50.0).astype(np.int64)
    if len(bins):
        assert_array_equal(hist.centers_ps, np.arange(bins.min(), bins.max() + 1) * 50.0)
        assert hist.counts.tolist() == [int(np.sum(bins == b))
                                        for b in range(bins.min(), bins.max() + 1)]
    else:
        assert hist.counts.size == hist.centers_ps.size == 0


def _hand_stream(n_pulses, events):
    """A stream of (channel, pulse) events in list order, 1 ps apart, so the
    stream is time-sorted whatever the order of its pulses."""
    ch, pu = zip(*events) if events else ([], [])
    return stream_of(ch, pu, np.arange(len(events)), n_pulses)


@st.composite
def _trigger_events(draw):
    """0 to 300 pulses and up to 60 clicks on them, each channel's clicks
    repeated and out of order, in order, or strictly increasing; and the
    lines per block of the stream loader, down to one line."""
    n_pulses = draw(st.integers(0, 300))
    click = st.tuples(st.sampled_from([TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL]),
                      st.integers(0, max(n_pulses - 1, 0)))
    events = draw(st.lists(click, max_size=60 if n_pulses else 0))
    order = draw(st.sampled_from(["drawn", "sorted", "unique"]))
    if order != "drawn":
        events = sorted(set(events) if order == "unique" else events, key=lambda e: e[1])
    return n_pulses, events, draw(st.sampled_from([1, 2, 3, 7, 1 << 16]))


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(_trigger_events())
@example((0, [], 1 << 16))
@example((300, [(TRIGGER_CHANNEL, p) for p in range(300)], 7))
@example((300, [(TRIGGER_CHANNEL, p) for p in range(299, -1, -2)], 1))
def test_trigger_list_counts_equal_brute_force(case):
    n_pulses, events, block_rows = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "events.csv"
        _hand_stream(n_pulses, events).save(path)
        patch.setattr(sources, "BLOCK_ROWS", block_rows)
        stream = EventStream.load(path)
    assert len(stream.chunks) == -(-len(events) // block_rows)
    clicks = first_clicks(stream)
    assert clicks.trigger_pulses.dtype == np.uint32
    # the start and stop sides cross the same block boundaries
    columns = columns_of(_hand_stream(n_pulses, events))
    for channel, pulses, times in [(START_CHANNEL, clicks.start_pulses, clicks.start_times),
                                   (STOP_CHANNEL, clicks.stop_pulses, clicks.stop_times)]:
        want_pulses, want_times = _reference_first(columns, channel)
        assert_array_equal(pulses, _documented(want_pulses, stream), strict=True)
        assert_array_equal(times, want_times, strict=True)
    trig = {p for ch, p in events if ch == TRIGGER_CHANNEL}
    window = CoincidenceWindow(1e-9)
    reach = range(1, n_pulses + 6)
    for offset in [0, *reach, *(-n for n in reach), 2**32, -2**32]:
        assert opportunities(clicks, offset) == sum(p + abs(offset) in trig for p in trig)
        assert count_summary(clicks, window, offset)[0].n_trigger == len(trig)


@pytest.mark.parametrize("n_pulses, dtype", [(2**32, np.uint32), (2**32 + 1, np.int64)])
def test_trigger_list_widens_past_2_32_pulses(n_pulses, dtype):
    pulses = [0, n_pulses - 2, n_pulses - 1]
    clicks = first_clicks(_hand_stream(n_pulses, [(TRIGGER_CHANNEL, p) for p in pulses]
                                       + [(STOP_CHANNEL, 0), (START_CHANNEL, n_pulses - 1),
                                          (STOP_CHANNEL, n_pulses - 1)]))
    for side in (clicks.trigger_pulses, clicks.start_pulses, clicks.stop_pulses):
        assert side.dtype == dtype
    assert_array_equal(clicks.trigger_pulses, pulses)
    # the offset keys are signed and wide: the last pulse plus one is no
    # pulse, though a uint32 search clips it onto the last stop pulse
    assert len(pair_delays(clicks, 1)[0]) == 0
    # the start at the last pulse (4 ps) pairs with the stop at pulse 0 (3 ps)
    assert_array_equal(pair_delays(clicks, 1 - n_pulses)[0],
                       [3.0 - 4.0 - (1 - n_pulses) * clicks.rep_ps], strict=True)
    # the widest gap of the list, and one past it
    assert opportunities(clicks, n_pulses - 1) == 1
    assert opportunities(clicks, n_pulses) == 0

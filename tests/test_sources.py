"""Source statistics, detectors, and event-stream generation.

Monte Carlo checks compare empirical rates against the exact enumeration
in expected_hbt_rates within a few binomial standard deviations; all runs
are seeded, so the margins never flap.  The generator draws each trigger's
clicks from the same table the oracle sums, so that table is checked on
its own against a photon-by-photon reference of the detector chain.  Determinism checks rely on the
chunked counter-based substreams: the events of a chunk depend only on
(seed, chunk index), not on how many pulses follow.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.optimize import brentq

from qfcsim.config import (
    ConfigError,
    SOURCE_KINDS,
    ExperimentConfig,
    PRESETS,
)
from qfcsim.counting import CoincidenceWindow, count_summary, first_clicks, pair_delays
from qfcsim import sources
from qfcsim.qubits import PHI_PLUS, density, entangled_pair_state
from qfcsim.sources import (
    CHUNK_PULSES,
    EventStream,
    START_CHANNEL,
    STOP_CHANNEL,
    TRIGGER_CHANNEL,
    expected_hbt_rates,
    generate_hbt_stream,
    generate_mzi_stream,
    pair_distribution,
    _herald,
    _herald_weights,
    _outcome_table,
)

from test_counting import columns_of, stream_of

THERMAL_ORACLE_G2 = 1.990484087843


def test_pair_distribution_poisson_matches_scipy():
    cfg = ExperimentConfig(source_kind="spdc", mean_pairs=0.35, pair_truncation=6)
    k = np.arange(7)
    ref = stats.poisson.pmf(k, 0.35)
    ref = ref / ref.sum()
    assert_allclose(pair_distribution(cfg), ref, atol=1e-12)


def test_pair_distribution_thermal_matches_geometric():
    mu = 0.4
    cfg = ExperimentConfig(source_kind="spdc_thermal", mean_pairs=mu, pair_truncation=5)
    k = np.arange(6)
    ref = mu ** k / (1.0 + mu) ** (k + 1)
    ref = ref / ref.sum()
    assert_allclose(pair_distribution(cfg), ref, atol=1e-12)


def test_pair_distribution_thermal_at_large_mean_is_finite():
    # mu**k and (1 + mu)**(k + 1) overflow past k = 236 at mu = 20, which gave
    # NaN weights; in logs the ratio (20/21)**k / 21 is finite
    cfg = ExperimentConfig(source_kind="spdc_thermal", mean_pairs=20.0, pair_truncation=300,
                           n_pulses=1_000, seed=36)
    weights = pair_distribution(cfg)
    assert np.all(np.isfinite(weights))
    assert math.isclose(weights.sum(), 1.0)
    k = np.arange(301)
    assert_allclose(weights, (20.0 / 21.0) ** k / np.sum((20.0 / 21.0) ** k), rtol=1e-12)
    assert all(math.isfinite(rate) for rate in expected_hbt_rates(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_hbt_stream(cfg)


def test_pair_distribution_zero_mean():
    for kind in ("spdc", "spdc_thermal"):
        dist = pair_distribution(ExperimentConfig(source_kind=kind, mean_pairs=0.0))
        assert len(dist) == 5
        assert dist[0] == 1.0
        assert np.all(dist[1:] == 0.0)


def test_pair_distribution_single_photon():
    # one pair per pulse whatever mean_pairs and pair_truncation say
    single = ExperimentConfig(source_kind="single_photon", mean_pairs=0.3)
    assert pair_distribution(single).tolist() == [0.0, 1.0]


def test_detector_click_probabilities():
    # a single photon heralds with one photon's threshold click probability,
    # 1 - (1 - dark)(1 - eff), and no pulse goes without its photon
    for eff, dark, click in ((0.6, 0.0, 0.6), (0.0, 1e-3, 1e-3), (1.0, 0.0, 1.0),
                             (0.25, 1e-4, 1.0 - (1.0 - 1e-4) * (1.0 - 0.25))):
        single = ExperimentConfig(source_kind="single_photon", det1_efficiency=eff,
                                  det1_dark=dark)
        assert_allclose(_herald_weights(single), [0.0, click], rtol=1e-12, atol=0)
    # k pairs herald with 1 - (1 - eff)^k, weighted by their probability
    spdc = ExperimentConfig(mean_pairs=1.0, pair_truncation=3, det1_efficiency=0.6,
                            det1_dark=0.0)
    assert_allclose(_herald_weights(spdc) / pair_distribution(spdc),
                    [0.0, 0.6, 1.0 - 0.4 ** 2, 1.0 - 0.4 ** 3], atol=1e-12)
    # the stand-ins' one class is the laser pulse, which always triggers
    for kind in ("coherent", "thermal"):
        assert_array_equal(_herald_weights(ExperimentConfig(source_kind=kind)), [1.0],
                           strict=True)


def test_entangled_pair_state_limits():
    assert_allclose(entangled_pair_state(1.0), density(PHI_PLUS), atol=1e-12)
    assert_allclose(entangled_pair_state(0.0), np.eye(4) / 4.0, atol=1e-12)
    for w in (0.3, 14.0 / 15.0):
        rho = entangled_pair_state(w)
        f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
        assert abs(f - (1.0 + 3.0 * w) / 4.0) < 1e-12
    with pytest.raises(ValueError):
        entangled_pair_state(1.1)


_HEADER = "# n_pulses=2 seed=0 rep_period_ps=10000.0\n"

#: stream files that no run could have written, read in blocks of two lines:
#: (name, text, what ``EventStream.load``'s ValueError says)
BAD_STREAMS = [
    ("short_row", _HEADER + "1,0,0.0\n1,1\n", "columns"),
    ("pulse_past_n", _HEADER + "1,5,0.0\n", "pulse index"),
    ("negative_pulse", _HEADER + "1,-1,0.0\n", "pulse index"),
    ("pulse_past_n_in_later_block", _HEADER + "1,0,0.0\n2,0,1.0\n1,1,2.0\n3,2,3.0\n",
     "pulse index"),
    ("time_steps_back", _HEADER + "1,0,1.0\n1,1,0.0\n", "nondecreasing"),
    ("time_steps_back_at_block_edge", _HEADER + "1,0,0.0\n2,0,5.0\n1,1,4.0\n2,1,6.0\n",
     "nondecreasing"),
    ("nan_time", _HEADER + "1,0,0.0\n2,0,nan\n", "finite"),
    ("nan_time_at_block_start", _HEADER + "1,0,0.0\n2,0,1.0\n3,0,nan\n", "finite"),
    ("inf_time", _HEADER + "1,0,0.0\n2,0,inf\n", "finite"),
    ("minus_inf_time", _HEADER + "1,0,-inf\n", "finite"),
    ("negative_n_pulses", _HEADER.replace("n_pulses=2", "n_pulses=-5"), "n_pulses"),
    ("nan_period", _HEADER.replace("10000.0", "nan") + "1,0,0.0\n", "rep_period"),
    ("repeated_key", _HEADER.replace(" seed", " n_pulses=20 seed") + "1,0,0.0\n",
     "repeats a key"),
]


def test_event_stream_validation(tmp_path, monkeypatch):
    monkeypatch.setattr(sources, "BLOCK_ROWS", 2)
    for name, text, message in BAD_STREAMS:
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            EventStream.load(path)


def test_first_event_times_picks_earliest(monkeypatch):
    in_order = stream_of([2, 2, 2], [3, 5, 7], [100.0, 200.0, 300.0], n_pulses=10)
    # on channel 2 pulse 5 clicks before pulse 3, and each clicks twice:
    # each pulse's earliest click counts, after one sort
    shuffled = stream_of([2, 1, 2, 2, 2], [5, 3, 3, 5, 3],
                         [100.0, 120.0, 150.0, 180.0, 200.0], n_pulses=10)
    sorts = []
    for name in ("lexsort", "argsort"):
        sort = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _sort=sort, **k: sorts.append(1) or _sort(*a, **k))
    pulses, times = in_order.first_event_times(2)
    assert_array_equal(pulses, [3, 5, 7])
    assert_allclose(times, [100.0, 200.0, 300.0])
    assert not sorts  # pulses strictly increasing: one pass, no sort
    pulses, times = shuffled.first_event_times(2)
    assert_array_equal(pulses, [3, 5])
    assert_allclose(times, [150.0, 100.0])
    assert sorts == [1]
    assert_array_equal(shuffled.first_event_times(2, times=False), [3, 5])
    assert sorts == [1, 1]


# the pair source, both classical stand-ins, whose triggers are every pulse,
# and the ideal single photon, which heralds every pulse with one class
STREAM_PRESETS = ["calibrated_g2", "coherent_g2", "thermal_g2", "ideal_g2"]


@pytest.mark.parametrize("preset", STREAM_PRESETS, ids="{}_config".format)
def test_stream_determinism_same_seed(preset):
    cfg = PRESETS[preset](seed=909)
    cfg.n_pulses = 150_000
    a = columns_of(generate_hbt_stream(cfg))
    b = columns_of(generate_hbt_stream(cfg))
    for column_a, column_b in zip(a, b):
        assert_array_equal(column_a, column_b, strict=True)
    c = columns_of(generate_hbt_stream(replace(cfg, seed=910)))
    assert len(c[2]) != len(a[2]) or not np.array_equal(c[2], a[2])


@pytest.mark.parametrize("preset", STREAM_PRESETS, ids="{}_config".format)
def test_stream_chunks_are_extension_stable(preset):
    # adding pulses must not disturb earlier chunks: a longer run agrees
    # with a shorter one event for event over the shared prefix
    cfg = PRESETS[preset](seed=33)
    cfg.n_pulses = CHUNK_PULSES
    short = columns_of(generate_hbt_stream(cfg))
    cfg_long = PRESETS[preset](seed=33)
    cfg_long.n_pulses = CHUNK_PULSES + 1000
    long = columns_of(generate_hbt_stream(cfg_long))
    head = long[1] < CHUNK_PULSES
    for column_long, column_short in zip(long, short):
        assert_array_equal(column_long[head], column_short)


def test_stream_singles_match_enumeration():
    cfg = PRESETS["calibrated_g2"](seed=55)
    cfg.n_pulses = 300_000
    rates = expected_hbt_rates(cfg)
    channels, pulses, _ = columns_of(generate_hbt_stream(cfg))
    n_trig = int(np.sum(channels == TRIGGER_CHANNEL))
    mean = cfg.n_pulses * rates.p_trigger
    assert abs(n_trig - mean) < 4.0 * math.sqrt(mean)
    n_start = len(np.unique(pulses[channels == START_CHANNEL]))
    mean_start = n_trig * rates.p_start
    assert abs(n_start - mean_start) < 4.0 * math.sqrt(mean_start)
    n_stop = len(np.unique(pulses[channels == STOP_CHANNEL]))
    mean_stop = n_trig * rates.p_stop
    assert abs(n_stop - mean_stop) < 4.0 * math.sqrt(mean_stop)


def test_expected_rates_coherent_is_uncorrelated():
    # for Poissonian light the two split detectors are independent, so the
    # enumeration must give g2 = 1 identically
    rates = expected_hbt_rates(PRESETS["coherent_g2"]())
    assert abs(rates.g2 - 1.0) < 1e-9
    # and it stays 1 across powers of the stand-in
    cfg = PRESETS["coherent_g2"]()
    for mean in (0.01, 0.2, 1.0):
        cfg.mean_pairs = mean
        assert abs(expected_hbt_rates(cfg).g2 - 1.0) < 1e-9


def test_expected_rates_thermal_bunches():
    rates = expected_hbt_rates(PRESETS["thermal_g2"]())
    assert abs(rates.g2 - THERMAL_ORACLE_G2) < 1e-9
    assert 1.9 < rates.g2 < 2.0


def test_expected_rates_heralded_antibunches():
    rates = expected_hbt_rates(PRESETS["calibrated_g2"]())
    assert rates.g2 < 0.2
    assert rates.p_coincidence < rates.p_start * rates.p_stop


def noise_coeff_for_g2(config: ExperimentConfig, target: float, upper: float = 2.0) -> float:
    """Noise coefficient at which the expected heralded g2(0) hits ``target``."""
    def gap(coeff: float) -> float:
        return expected_hbt_rates(replace(config, noise_coeff=coeff)).g2 - target

    lo = gap(0.0)
    if lo > 0.0:
        raise ValueError(f"g2 already exceeds target at zero noise ({lo + target:.4f})")
    return float(brentq(gap, 0.0, upper, xtol=1e-15, rtol=1e-14))


def test_noise_calibration_reproduces_frozen_coefficient():
    cfg = PRESETS["calibrated_g2"]()
    shipped, cfg.noise_coeff = cfg.noise_coeff, 0.0
    found = noise_coeff_for_g2(cfg, 0.17)
    assert abs(found - shipped) < 1e-12
    cfg.noise_coeff = found
    assert abs(expected_hbt_rates(cfg).g2 - 0.17) < 1e-10
    with pytest.raises(ValueError):
        noise_coeff_for_g2(PRESETS["thermal_g2"](), 0.17)


def test_mzi_stream_rejects_classical_source():
    with pytest.raises(ConfigError):
        generate_mzi_stream(PRESETS["coherent_g2"]())


def test_chunks_whose_clicks_overlap_join_in_time_order(monkeypatch):
    # noise over +-12 ns around a 12.2 ns period lets the last clicks of one
    # chunk follow the first clicks of the next, which the time-order check
    # of EventStream refused when chunks were only concatenated; with 95% of
    # pulses heralded and 3.15 noise clicks each on average, of which each
    # herald keeps only its earliest start click, 3-12 of the 99 chunk
    # boundaries overlapped in each of 20 seeded runs, so none is out of reach
    cfg = PRESETS["calibrated_tomo"](seed=1)
    cfg.mzi_delay, cfg.mean_pairs, cfg.det1_efficiency = 0.49 * cfg.rep_period, 3.0, 1.0
    cfg.noise_coeff, cfg.n_pulses = 60.0, 10_000
    monkeypatch.setattr("qfcsim.sources.CHUNK_PULSES", 100)
    bodies, generate = [], sources._generate

    def capture(config, chunk_clicks):
        bodies.append(chunk_clicks)
        return generate(config, chunk_clicks)

    monkeypatch.setattr(sources, "_generate", capture)
    clicks = generate_mzi_stream(cfg)
    assert len(clicks.chunks) == 100
    got = columns_of(clicks)
    assert len(clicks.chunks) == 100 and len(clicks) == len(got[0])  # left as they are
    chunk = got[1] // 100
    assert np.any(chunk[1:] < chunk[:-1])
    assert np.all(np.diff(got[2]) >= 0.0)
    assert np.unique(chunk).tolist() == list(range(100))
    # the blocks join into a stable argsort of the joined chunks, each
    # stably time-sorted from its trigger clicks followed by its start clicks
    parts = []
    for index in range(100):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, index))))
        pulses, k = _herald(rng, _herald_weights(cfg), 100)
        by_channel = bodies[0](rng, pulses + 100 * index, k)
        assert list(by_channel) == [TRIGGER_CHANNEL, START_CHANNEL]
        events = [np.concatenate([np.full(len(p), ch, dtype=np.int16)
                                  for ch, (p, _) in by_channel.items()]),
                  *(np.concatenate(column) for column in zip(*by_channel.values()))]
        order = np.argsort(events[-1], kind="stable")
        parts.append([column[order] for column in events])
    joined = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(joined[-1], kind="stable")
    for column, want in zip(got, joined):
        assert_array_equal(column, want[order], strict=True)


def _hand_chunk(*clicks):
    """One chunk of (channel, pulse, time in ps) clicks, split by channel in
    first-seen channel order, each channel in the order given."""
    chunk = {}
    for channel, pulse, time_ps in clicks:
        chunk.setdefault(channel, ([], []))
        chunk[channel][0].append(pulse)
        chunk[channel][1].append(time_ps)
    return {ch: (np.array(pulses, dtype=np.int64), np.array(times))
            for ch, (pulses, times) in chunk.items()}


def test_sorted_blocks_carry_clicks_past_later_chunks():
    # chunk 0's clicks at 30 and 50 ps follow chunk 2's first click (25 ps),
    # so they are carried through chunk 1 into chunk 2's block; 40 ps is a
    # click time of chunks 1, 2 and 4, whose ties keep chunk order; chunk 3
    # is empty, as ``select_window`` leaves a chunk of only start and stop
    # clicks, and so is the last
    chunks = [_hand_chunk((TRIGGER_CHANNEL, 0, 0.0), (TRIGGER_CHANNEL, 1, 50.0),
                          (START_CHANNEL, 0, 30.0)),
              _hand_chunk((TRIGGER_CHANNEL, 2, 40.0), (STOP_CHANNEL, 2, 60.0)),
              _hand_chunk((START_CHANNEL, 3, 25.0), (TRIGGER_CHANNEL, 3, 40.0)),
              {},
              _hand_chunk((STOP_CHANNEL, 4, 40.0), (TRIGGER_CHANNEL, 4, 70.0),
                          (TRIGGER_CHANNEL, 5, 40.0)),
              {}]
    stream = EventStream(chunks, n_pulses=6, seed=0, rep_period=1e-9)
    parts = [(ch, pulses, times) for chunk in chunks for ch, (pulses, times) in chunk.items()]
    clicks = [(i, ch, pulses.tolist(), times.tolist())
              for i, chunk in enumerate(chunks) for ch, (pulses, times) in chunk.items()]
    joined = [np.concatenate([np.full(len(pulses), ch, dtype=np.int16)
                              for ch, pulses, _ in parts]),
              *(np.concatenate(column) for column in list(zip(*parts))[1:])]
    order = np.argsort(joined[-1], kind="stable")
    blocks = list(stream.sorted_blocks())
    assert [block[1].tolist() for block in blocks] == [[0], [], [3, 0], [], [2, 3, 4, 5, 1, 2, 4],
                                                       []]
    for column, want in zip(columns_of(stream), joined):
        assert_array_equal(column, want[order], strict=True)
    assert [(i, ch, pulses.tolist(), times.tolist()) for i, chunk in enumerate(stream.chunks)
            for ch, (pulses, times) in chunk.items()] == clicks  # left as they are


def test_save_leaves_the_stream_intact(tmp_path, monkeypatch):
    # a library caller may save a run, then save it again or index it
    monkeypatch.setattr(sources, "CHUNK_PULSES", 50_000)
    cfg = PRESETS["calibrated_g2"](seed=21)
    cfg.n_pulses = 200_000
    stream = generate_hbt_stream(cfg)
    assert len(stream.chunks) == 4
    before = first_clicks(stream)
    stream.save(tmp_path / "once.csv")
    stream.save(tmp_path / "twice.csv")
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "twice.csv").read_bytes()
    after = first_clicks(stream)
    assert len(after.trigger_pulses) > 0
    for name in ("trigger_pulses", "start_pulses", "start_times", "stop_pulses", "stop_times"):
        assert_array_equal(getattr(after, name), getattr(before, name), strict=True)


def test_mzi_stream_peak_positions():
    cfg = ExperimentConfig(
        source_kind="single_photon",
        pump_power=(math.pi / 2.0) ** 2 / 3.6,
        eff_peak=1.0, extra_transmittance=1.0,
        noise_coeff=0.0, pump_linewidth=0.0, jitter_sigma=0.0,
        det1_efficiency=1.0, det1_dark=0.0,
        det2_efficiency=1.0, det2_dark=0.0,
        n_pulses=40_000, seed=8,
    )
    channels, pulses, times = columns_of(generate_mzi_stream(cfg))
    # with zero jitter every start click sits exactly on a slot boundary
    starts = channels == START_CHANNEL
    pulses = pulses[starts]
    rel = times[starts] - pulses * cfg.rep_period * 1e12
    delay_ps = cfg.mzi_delay * 1e12
    slots = np.unique(np.round(rel / delay_ps).astype(int))
    assert set(slots.tolist()) <= {-1, 0, 1}
    assert_allclose(rel, np.round(rel / delay_ps) * delay_ps, atol=1e-6)
    # slot weights 1:2:1 from the two fair arm choices
    counts = {s: int(np.sum(np.round(rel / delay_ps).astype(int) == s)) for s in (-1, 0, 1)}
    total = sum(counts.values())
    assert abs(counts[0] / total - 0.5) < 0.02
    assert abs(counts[-1] / total - 0.25) < 0.02
    assert abs(counts[1] / total - 0.25) < 0.02


def test_stream_save_load_roundtrip(tmp_path, monkeypatch):
    # two-row blocks, so the five rows are written across three blocks
    monkeypatch.setattr("qfcsim.artifacts.BLOCK_ROWS", 2)
    columns = ([TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL, TRIGGER_CHANNEL, START_CHANNEL],
               [0, 0, 0, 9, 9], [-35.5, 1e-05, 0.30000000000000004, 1e+16, 1e+16])
    stream = stream_of(*columns, n_pulses=10, seed=7, rep_period=12.5e-9)
    path = tmp_path / "events.csv"
    stream.save(path)
    assert len(stream) == 5  # saving leaves the chunks as they are
    assert path.read_text() == (
        "# n_pulses=10 seed=7 rep_period_ps=12500.0\n"
        "1,0,-35.5\n"
        "2,0,1e-05\n"
        "3,0,0.30000000000000004\n"
        "1,9,1e+16\n"
        "2,9,1e+16\n")
    # blank and comment lines between rows are skipped on reading
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["\n", "# note\n"] + lines[3:] + ["\n"]))
    # three lines a block, those skipped included: each block is one chunk,
    # split by channel in file order
    monkeypatch.setattr(sources, "BLOCK_ROWS", 3)
    loaded = EventStream.load(path)
    assert (loaded.n_pulses, loaded.seed, loaded.rep_period) == (10, 7, 12.5e-9)
    assert [list(chunk) for chunk in loaded.chunks] == [[1, 2], [1, 3], [2]]
    assert_array_equal(loaded.chunks[1][TRIGGER_CHANNEL][0], [9], strict=True)
    # repr-based serialization is lossless for float64
    for got, want in zip(columns_of(loaded), columns):
        assert_array_equal(got, want)


def test_loaded_period_keeps_its_ps_value(tmp_path):
    """The header holds the period in ps, ``rep_period * 1e12``, which is
    all the analysis reads of it.  For 400 random periods from 1 ns to 1 us
    the loaded period gives that value back exactly, and it is the saved
    period itself unless its float neighbour has the same ps value (about 8%
    of periods), which the header cannot tell apart."""
    rng = np.random.default_rng(49)
    path = tmp_path / "events.csv"
    for period in rng.uniform(1e-9, 1e-6, 400):
        EventStream([], n_pulses=1, seed=0, rep_period=period).save(path)
        loaded = EventStream.load(path).rep_period
        assert loaded * 1e12 == period * 1e12
        assert loaded in (period, np.nextafter(period, 0.0), np.nextafter(period, 1.0))


def test_stream_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0,0.0\n")
    with pytest.raises(ValueError):
        EventStream.load(path)


_HERALDED_KINDS = ("spdc", "spdc_thermal", "single_photon")


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(kind=st.sampled_from(_HERALDED_KINDS),
       eff=st.one_of(st.just(0.0), st.floats(1e-3, 0.999), st.just(1.0)),
       dark=st.one_of(st.just(0.0), st.floats(1e-7, 0.5)),
       mu=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3), st.floats(0.5, 20.0)),
       truncation=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_herald_matches_its_law(kind, eff, dark, mu, truncation, seed):
    # each pulse heralds with p = sum w_k on its own, and a herald's pair
    # number k has law w_k / p
    cfg = ExperimentConfig(source_kind=kind, det1_efficiency=eff, det1_dark=dark,
                           mean_pairs=mu, pair_truncation=truncation)
    m = 50_000
    w = _herald_weights(cfg)
    hidx, k = _herald(np.random.Generator(np.random.Philox(seed)), w, m)
    if np.count_nonzero(w) == 1:
        # a one-class law gives its class as one int
        assert type(k) is int
        k = np.full(len(hidx), k)
    assert hidx.dtype == np.int64 and k.dtype == np.int64 and len(hidx) == len(k)
    assert np.all(np.diff(hidx) > 0) and (not len(hidx) or 0 <= hidx[0] <= hidx[-1] < m)
    p = min(float(w.sum()), 1.0)
    # the first half's count against the whole's catches heralds piled at the end
    assert abs(_pull(len(hidx), m, p)) <= 5.0
    assert abs(_pull(int(np.sum(hidx < m // 2)), m // 2, p)) <= 5.0
    assert np.all(w[k] > 0.0)
    if p == 0.0:
        return
    expected = len(k) * w / w.sum()
    observed = np.bincount(k, minlength=len(w))
    # pair numbers expected fewer than 5 times share one bin
    rare = expected < 5.0
    obs = np.append(observed[~rare], observed[rare].sum())
    exp = np.append(expected[~rare], expected[rare].sum())
    obs, exp = obs[exp > 0.0], exp[exp > 0.0]
    if len(exp) > 1:
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        assert stats.chi2.sf(chi2, len(exp) - 1) > 1e-6, (chi2, obs, exp)


def test_herald_never_fires_at_zero_probability():
    never = [ExperimentConfig(det1_efficiency=0.0, det1_dark=0.0),
             ExperimentConfig(source_kind="single_photon", det1_efficiency=0.0, det1_dark=0.0),
             # 1 - (1 - 1e-20) rounds to a click probability of 0
             ExperimentConfig(det1_efficiency=0.0, det1_dark=1e-20),
             # p = 1e-30: numpy saturates every gap at int64 max, which must not wrap
             ExperimentConfig(mean_pairs=1e-30, det1_efficiency=1.0, det1_dark=0.0)]
    for cfg in never:
        hidx, k = _herald(np.random.Generator(np.random.Philox(7)), _herald_weights(cfg),
                          CHUNK_PULSES)
        assert hidx.dtype == np.int64 and k.dtype == np.int64
        assert len(hidx) == 0 and len(k) == 0


def test_herald_at_certain_click_takes_every_pulse():
    # the ideal source heralds every pulse with one pair, and the stand-ins'
    # laser pulse triggers every pulse as class 0; neither draws anything
    ideal = ExperimentConfig(source_kind="single_photon", det1_efficiency=1.0, det1_dark=0.0)
    for cfg, cls in ((ideal, 1), (ExperimentConfig(source_kind="coherent"), 0),
                     (ExperimentConfig(source_kind="thermal"), 0)):
        rng = np.random.Generator(np.random.Philox(5))
        hidx, k = _herald(rng, _herald_weights(cfg), 1000)
        assert_array_equal(hidx, np.arange(1000), strict=True)
        assert type(k) is int and k == cls
        assert rng.random() == np.random.Generator(np.random.Philox(5)).random()
    # a dark count in every gate heralds every pulse too, with k drawn from p_k
    dark = ExperimentConfig(mean_pairs=0.5, det1_efficiency=0.3, det1_dark=1.0)
    hidx, k = _herald(np.random.Generator(np.random.Philox(5)), _herald_weights(dark), 1000)
    assert_array_equal(hidx, np.arange(1000), strict=True)
    assert set(k.tolist()) <= set(range(dark.pair_truncation + 1)) and len(set(k.tolist())) > 1


class _EdgeUniforms:
    """A generator stand-in whose gaps are Philox draws and whose ``random(n)``
    cycles through the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms
        self.rng = np.random.Generator(np.random.Philox(3))

    def geometric(self, p, n):
        return self.rng.geometric(p, n)

    def random(self, n):
        return np.resize(self.uniforms, n)


def _cdf_edge_uniforms(w):
    """Every entry of the cdf of w_k / p, just below it, and the ends of [0, 1)."""
    cdf = np.cumsum(w) / w.sum()
    uniforms = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    return uniforms[uniforms < 1.0], cdf


@pytest.mark.parametrize("kind", _HERALDED_KINDS)
def test_herald_at_cdf_edges(kind):
    # with no dark count the herald detector never clicks on k = 0, whose
    # weight is then 0
    for dark in (0.3, 0.0):
        cfg = ExperimentConfig(source_kind=kind, det1_efficiency=0.4, det1_dark=dark,
                               mean_pairs=2.0, pair_truncation=3)
        w = _herald_weights(cfg)
        uniforms, _ = _cdf_edge_uniforms(w)
        hidx, k = _herald(_EdgeUniforms(uniforms), w, 20_000)
        k = np.broadcast_to(k, hidx.shape)  # the single photon's one class is an int
        assert len(k) > len(uniforms)
        # the edges reach every pair number with weight and no other
        assert_array_equal(np.unique(k), np.flatnonzero(w))


@pytest.mark.parametrize("kind, mu, dark, truncation", [
    # the weights past k = 177 underflow to 0, and the cdf ends 4e-16 below 1
    ("spdc", 1.0, 0.3, 300), ("spdc", 1.0, 1.0, 300)])
def test_herald_never_picks_a_zero_weight(kind, mu, dark, truncation):
    cfg = ExperimentConfig(source_kind=kind, det1_efficiency=0.4, det1_dark=dark,
                           mean_pairs=mu, pair_truncation=truncation)
    w = _herald_weights(cfg)
    uniforms, cdf = _cdf_edge_uniforms(w)
    _, k = _herald(_EdgeUniforms(uniforms), w, 20_000)
    assert len(k) > 0
    assert np.all(w[k] > 0.0)
    if cdf[-1] < 1.0:
        # a uniform past the rounded cdf's end takes the last k with weight
        assert k.max() == np.flatnonzero(w)[-1]


def _pull(observed: int, trials: int, p: float) -> float:
    """Binomial deviation of ``observed`` successes in ``trials`` over its
    standard deviation; 0 for an exact hit and inf for any miss at zero spread."""
    mean, var = trials * p, trials * p * (1.0 - p)
    if var == 0.0:
        return 0.0 if observed == mean else math.inf
    return (observed - mean) / math.sqrt(var)


def _per_photon_outcomes(rng, config, k):
    """The (start, stop) outcome of each trigger of class ``k`` (its pair
    number, or 0 for a stand-in's laser pulse), coded start + 2 stop, drawn
    photon by photon: the band photons (the k pairs thinned by the chain,
    or the stand-in's Poisson or Bose-Einstein band) plus the Poissonian
    pump noise, each sent either way at the balanced splitter, then each
    detector's threshold click."""
    s_chain, nu, n = config.chain_efficiency(), config.noise_mean(), len(k)
    mean_eff = config.mean_pairs * s_chain
    if config.source_kind == "coherent":
        n_band = rng.poisson(mean_eff, n)
    elif config.source_kind == "thermal":
        n_band = rng.geometric(1.0 / (1.0 + mean_eff), n) - 1
    else:
        n_band = rng.binomial(k, s_chain)
    if nu > 0.0:
        n_band += rng.poisson(nu, n)
    n_start = rng.binomial(n_band, 0.5)

    def click(efficiency, dark, photons):
        # a threshold detector: a dark count or any photon registered
        return rng.random(n) < 1.0 - (1.0 - dark) * (1.0 - efficiency) ** photons

    click2 = click(config.det2_efficiency, config.det2_dark, n_start)
    click3 = click(config.det3_efficiency, config.det3_dark, n_band - n_start)
    return click2 + 2 * click3


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(kind=st.sampled_from(SOURCE_KINDS),
       mu=st.floats(1e-3, 3.0),
       truncation=st.integers(1, 6),
       transmittance=st.floats(0.05, 1.0),
       eff=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.just(1.0))] * 2),
       dark=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-6, 0.2))] * 2),
       noise=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_outcome_table_matches_per_photon_chain(kind, mu, truncation, transmittance, eff,
                                                dark, noise, seed):
    # every class's row against the outcome counts of the photon-by-photon
    # chain for triggers of that class; the class weights are the herald's
    cfg = ExperimentConfig(source_kind=kind, mean_pairs=mu, pair_truncation=truncation,
                           extra_transmittance=transmittance, det2_efficiency=eff[0],
                           det3_efficiency=eff[1], det2_dark=dark[0], det3_dark=dark[1],
                           noise_coeff=noise / 0.7, pump_power=0.7)
    weights, table = _outcome_table(cfg)
    assert_array_equal(weights, _herald_weights(cfg), strict=True)
    assert table.shape == (len(weights), 4) and np.all(table >= 0.0)
    assert_allclose(table.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    rng = np.random.Generator(np.random.Philox(seed))
    n = 10_000
    for k in np.flatnonzero(weights):
        observed = np.bincount(_per_photon_outcomes(rng, cfg, np.full(n, k)), minlength=4)
        expected = n * table[k]
        # outcomes expected fewer than 5 times share one bin, which an
        # outcome of probability 0 must leave empty
        rare = expected < 5.0
        obs = np.append(observed[~rare], observed[rare].sum())
        exp = np.append(expected[~rare], expected[rare].sum())
        assert np.all(obs[exp == 0.0] == 0), (k, observed, table[k])
        obs, exp = obs[exp > 0.0], exp[exp > 0.0]
        if len(exp) > 1:
            chi2 = float(np.sum((obs - exp) ** 2 / exp))
            assert stats.chi2.sf(chi2, len(exp) - 1) > 1e-6, (k, observed, table[k])
    # the lossless single photon never clicks on both sides, by construction
    assert _outcome_table(PRESETS["ideal_g2"]())[1][1].tolist() == [0.5, 0.25, 0.25, 0.0]


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(kind=st.sampled_from(SOURCE_KINDS),
       mu=st.floats(1e-3, 2.0),
       eff1=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       eff2=st.floats(0.0, 1.0),
       eff3=st.floats(0.0, 1.0),
       dark=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))] * 3),
       noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
       seed=st.integers(0, 2**32 - 1))
def test_stream_counts_match_oracle(kind, mu, eff1, eff2, eff3, dark, noise, seed):
    cfg = ExperimentConfig(source_kind=kind, mean_pairs=mu, det1_efficiency=eff1,
                           det2_efficiency=eff2, det3_efficiency=eff3,
                           det1_dark=dark[0], det2_dark=dark[1], det3_dark=dark[2],
                           noise_coeff=noise / 0.7, pump_power=0.7,
                           n_pulses=200_000, seed=seed)
    summary, _ = count_summary(first_clicks(generate_hbt_stream(cfg)),
                               CoincidenceWindow(cfg.coincidence_window))
    try:
        rates = expected_hbt_rates(cfg)
    except ValueError:
        # the oracle refuses a herald that never fires, and so must the stream
        assert summary.n_trigger == 0 and eff1 == 0.0 and dark[0] == 0.0
        return
    # pair sources click on channels 2 and 3 only in heralded pulses, so those
    # probabilities are per trigger; the classical trigger is every pulse
    pulls = {"trigger": _pull(summary.n_trigger, cfg.n_pulses, rates.p_trigger),
             "start": _pull(summary.n_start, summary.n_trigger, rates.p_start),
             "stop": _pull(summary.n_stop, summary.n_trigger, rates.p_stop),
             "coincidence": _pull(summary.n_coincidence, summary.n_trigger,
                                  rates.p_coincidence)}
    assert all(abs(pull) <= 5.0 for pull in pulls.values()), (pulls, rates, summary)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(kind=st.sampled_from(_HERALDED_KINDS),
       mu=st.floats(0.01, 2.0),
       eff1=st.floats(0.05, 1.0),
       dark1=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
       eff2=st.floats(0.05, 1.0),
       dark2=st.one_of(st.just(0.0), st.floats(1e-6, 0.2)),
       transmittance=st.floats(0.05, 1.0),
       delay_frac=st.floats(0.01, 0.49),
       jitter_frac=st.floats(0.0, 0.05),
       noise=st.one_of(st.just(0.0), st.floats(1e-3, 40.0)),
       seed=st.integers(0, 2**32 - 1))
@example(kind="spdc", mu=2.0, eff1=1.0, dark1=0.0, eff2=1.0, dark2=0.2, transmittance=1.0,
         delay_frac=0.49, jitter_frac=0.05, noise=40.0, seed=0)
def test_timebin_slots_match_oracle(kind, mu, eff1, dark1, eff2, dark2, transmittance,
                                    delay_frac, jitter_frac, noise, seed):
    # a herald's signal reaches channel 2 with q = s_chain * eff2 / 2 at
    # -delay, 0, +delay in the ratio 1:2:1, a dark count (d) lands at 0, and
    # the detected pump noise, Poisson of mean lam = noise * eff2 / 2, is
    # uniform over +-2 delay; so the earliest start click comes after t
    # (in delays) with S(t) = exp(-lam (t + 2) / 4) P(no signal or dark by t),
    # and its slot, the delay rounded to whole delays, is -2 .. 2 with the
    # probability S(a) - S(b) over its edges a, b; at lam = 0 that is
    # q/4, q/2 + d (1 - 3q/4), q/4 (1 - d) over slots -1, 0, 1
    rep = ExperimentConfig().rep_period
    cfg = ExperimentConfig(source_kind=kind, mean_pairs=mu, det1_efficiency=eff1,
                           det1_dark=dark1, det2_efficiency=eff2, det2_dark=dark2,
                           extra_transmittance=transmittance, mzi_delay=delay_frac * rep,
                           jitter_sigma=jitter_frac * delay_frac * rep,
                           n_pulses=200_000, seed=seed)
    cfg.noise_coeff = noise / cfg.pump_power
    clicks = first_clicks(generate_mzi_stream(cfg), TRIGGER_CHANNEL, START_CHANNEL)
    delays, _ = pair_delays(clicks)
    n_trigger = len(clicks.trigger_pulses)
    slot = np.round(delays / (cfg.mzi_delay * 1e12))
    # a slot's edges, delay / 2 from its centre, lie 7 or more deviations of
    # the trigger and start jitter combined away from it
    assert set(slot.tolist()) <= ({-2.0, -1.0, 0.0, 1.0, 2.0} if noise else {-1.0, 0.0, 1.0})
    q, d, lam = 0.5 * cfg.chain_efficiency() * eff2, dark2, 0.5 * cfg.noise_mean() * eff2
    # a noise click has no jitter of its own, so the trigger's (jitter_frac
    # delays) shifts it across the edges: averaged over it, the noise
    # factor exp(-lam t / 4) gains exp((lam jitter_frac / 4)^2 / 2)
    shift = math.exp(0.5 * (lam * jitter_frac / 4.0) ** 2)
    edges = [shift * math.exp(-lam * (t + 2.0) / 4.0) * quiet
             for t, quiet in ((-1.5, 1.0), (-0.5, 1.0 - q / 4.0),
                              (0.5, (1.0 - 0.75 * q) * (1.0 - d)), (1.5, (1.0 - q) * (1.0 - d)))]
    survival = [1.0, *edges, math.exp(-lam) * (1.0 - q) * (1.0 - d)]
    want = {name: survival[i] - survival[i + 1]
            for i, name in enumerate((-2.0, -1.0, 0.0, 1.0, 2.0))}
    want["none"] = survival[-1]
    got = {name: int(np.sum(slot == name)) for name in (-2.0, -1.0, 0.0, 1.0, 2.0)}
    got["none"] = n_trigger - len(delays)
    pulls = {name: _pull(got[name], n_trigger, p) for name, p in want.items()}
    assert all(abs(pull) <= 5.0 for pull in pulls.values()), (pulls, want, got, n_trigger)

"""Source statistics, detectors, and event-stream generation.

Monte Carlo checks compare empirical rates against the exact enumeration
in expected_hbt_rates within a few binomial standard deviations; all runs
are seeded, so the margins never flap.  Determinism checks rely on the
chunked counter-based substreams: the events of a chunk depend only on
(seed, chunk index), not on how many pulses follow.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.optimize import brentq

from qfcsim.config import (
    ConfigError,
    SOURCE_KINDS,
    ExperimentConfig,
    NOISE_COEFF_G2_CAL,
    calibrated_g2_config,
    calibrated_tomo_config,
    coherent_g2_config,
    thermal_g2_config,
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
    _click_prob,
    _herald,
)

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
    n = np.arange(4)
    assert_allclose(_click_prob(0.6, 0.0, n), [0.0, 0.6, 1.0 - 0.4 ** 2, 1.0 - 0.4 ** 3],
                    atol=1e-12)
    assert_allclose(_click_prob(0.0, 1e-3, np.array([5])), [1e-3], atol=1e-15)
    assert_allclose(_click_prob(0.25, 1e-4, n),
                    1.0 - (1.0 - 1e-4) * (1.0 - 0.25) ** n, rtol=0, atol=0)


def test_entangled_pair_state_limits():
    assert_allclose(entangled_pair_state(1.0), density(PHI_PLUS), atol=1e-12)
    assert_allclose(entangled_pair_state(0.0), np.eye(4) / 4.0, atol=1e-12)
    for w in (0.3, 14.0 / 15.0):
        rho = entangled_pair_state(w)
        f = float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
        assert abs(f - (1.0 + 3.0 * w) / 4.0) < 1e-12
    with pytest.raises(ValueError):
        entangled_pair_state(1.1)


def test_event_stream_validation():
    with pytest.raises(ValueError):
        EventStream(np.array([1]), np.array([0, 1]), np.array([0.0]),
                    n_pulses=2, seed=0, rep_period=1e-8)
    with pytest.raises(ValueError):
        EventStream(np.array([1]), np.array([5]), np.array([0.0]),
                    n_pulses=2, seed=0, rep_period=1e-8)
    with pytest.raises(ValueError):
        EventStream(np.array([1, 1]), np.array([0, 1]), np.array([1.0, 0.0]),
                    n_pulses=2, seed=0, rep_period=1e-8)


def test_first_event_times_picks_earliest(monkeypatch):
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    stream = EventStream(
        channels=np.array([2, 2, 2]),
        pulse_indices=np.array([3, 5, 5]),
        timestamps_ps=np.array([100.0, 200.0, 201.0]),
        n_pulses=10, seed=1, rep_period=1e-8,
    )
    pulses, times = stream.first_event_times(2)
    assert_array_equal(pulses, [3, 5])
    assert_allclose(times, [100.0, 200.0])
    assert not sorts  # pulses in order: one pass, no sort
    # pulse 5 clicks before pulse 3 here, so the run-boundary rule would be
    # wrong; the out-of-order list takes the sort-based fallback
    shuffled = EventStream(
        channels=np.array([2, 1, 2, 2, 2]),
        pulse_indices=np.array([5, 3, 3, 5, 3]),
        timestamps_ps=np.array([100.0, 120.0, 150.0, 180.0, 200.0]),
        n_pulses=10, seed=1, rep_period=1e-8,
    )
    pulses, times = shuffled.first_event_times(2)
    assert_array_equal(pulses, [3, 5])
    assert_allclose(times, [150.0, 100.0])
    assert sorts == [1]


def test_stream_determinism_same_seed():
    cfg = calibrated_g2_config(seed=909)
    cfg.n_pulses = 150_000
    a = generate_hbt_stream(cfg).to_stream()
    b = generate_hbt_stream(cfg).to_stream()
    assert_array_equal(a.channels, b.channels)
    assert_array_equal(a.pulse_indices, b.pulse_indices)
    assert_array_equal(a.timestamps_ps, b.timestamps_ps)
    c = generate_hbt_stream(replace(cfg, seed=910)).to_stream()
    assert len(c) != len(a) or not np.array_equal(c.timestamps_ps, a.timestamps_ps)


def test_stream_chunks_are_extension_stable():
    # adding pulses must not disturb earlier chunks: a longer run agrees
    # with a shorter one event for event over the shared prefix
    cfg = calibrated_g2_config(seed=33)
    cfg.n_pulses = CHUNK_PULSES
    short = generate_hbt_stream(cfg).to_stream()
    cfg_long = calibrated_g2_config(seed=33)
    cfg_long.n_pulses = CHUNK_PULSES + 1000
    long = generate_hbt_stream(cfg_long).to_stream()
    head = long.pulse_indices < CHUNK_PULSES
    assert_array_equal(long.channels[head], short.channels)
    assert_array_equal(long.pulse_indices[head], short.pulse_indices)
    assert_array_equal(long.timestamps_ps[head], short.timestamps_ps)


def test_stream_singles_match_enumeration():
    cfg = calibrated_g2_config(seed=55)
    cfg.n_pulses = 300_000
    rates = expected_hbt_rates(cfg)
    stream = generate_hbt_stream(cfg).to_stream()
    n_trig = int(np.sum(stream.channels == TRIGGER_CHANNEL))
    mean = cfg.n_pulses * rates.p_trigger
    assert abs(n_trig - mean) < 4.0 * math.sqrt(mean)
    n_start = len(np.unique(stream.pulse_indices[stream.channels == START_CHANNEL]))
    mean_start = n_trig * rates.p_start
    assert abs(n_start - mean_start) < 4.0 * math.sqrt(mean_start)
    n_stop = len(np.unique(stream.pulse_indices[stream.channels == STOP_CHANNEL]))
    mean_stop = n_trig * rates.p_stop
    assert abs(n_stop - mean_stop) < 4.0 * math.sqrt(mean_stop)


def test_expected_rates_coherent_is_uncorrelated():
    # for Poissonian light the two split detectors are independent, so the
    # enumeration must give g2 = 1 identically
    rates = expected_hbt_rates(coherent_g2_config())
    assert abs(rates.g2 - 1.0) < 1e-9
    # and it stays 1 across powers of the stand-in
    cfg = coherent_g2_config()
    for mean in (0.01, 0.2, 1.0):
        cfg.mean_pairs = mean
        assert abs(expected_hbt_rates(cfg).g2 - 1.0) < 1e-9


def test_expected_rates_thermal_bunches():
    rates = expected_hbt_rates(thermal_g2_config())
    assert abs(rates.g2 - THERMAL_ORACLE_G2) < 1e-9
    assert 1.9 < rates.g2 < 2.0


def test_expected_rates_heralded_antibunches():
    rates = expected_hbt_rates(calibrated_g2_config())
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
    cfg = calibrated_g2_config()
    cfg.noise_coeff = 0.0
    found = noise_coeff_for_g2(cfg, 0.17)
    assert abs(found - NOISE_COEFF_G2_CAL) < 1e-12
    cfg.noise_coeff = found
    assert abs(expected_hbt_rates(cfg).g2 - 0.17) < 1e-10
    with pytest.raises(ValueError):
        noise_coeff_for_g2(thermal_g2_config(), 0.17)


def test_mzi_stream_rejects_classical_source():
    with pytest.raises(ConfigError):
        generate_mzi_stream(coherent_g2_config())


def test_chunks_whose_clicks_overlap_join_in_time_order(monkeypatch):
    # noise over +-12 ns around a 12.2 ns period lets the last clicks of one
    # chunk follow the first clicks of the next, which the time-order check
    # of EventStream refused when chunks were only concatenated; with 95% of
    # pulses heralded and about 3 noise clicks each, 28-48 of the 99 chunk
    # boundaries overlapped in each of 20 seeded runs, so none is out of reach
    cfg = calibrated_tomo_config(seed=1)
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
    stream = clicks.to_stream()
    assert clicks.chunks == [] and len(clicks) == 0  # consumed chunk by chunk
    chunk = stream.pulse_indices // 100
    assert np.any(chunk[1:] < chunk[:-1])
    assert np.all(np.diff(stream.timestamps_ps) >= 0.0)
    assert np.unique(chunk).tolist() == list(range(100))
    # the re-sort is a stable argsort of the joined chunks, each stably
    # time-sorted from its trigger clicks followed by its start clicks
    parts = []
    for index in range(100):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, index))))
        by_channel = bodies[0](rng, 100 * index, 100)
        assert list(by_channel) == [TRIGGER_CHANNEL, START_CHANNEL]
        events = [np.concatenate([np.full(len(p), ch, dtype=np.int16)
                                  for ch, (p, _) in by_channel.items()]),
                  *(np.concatenate(column) for column in zip(*by_channel.values()))]
        order = np.argsort(events[-1], kind="stable")
        parts.append([column[order] for column in events])
    joined = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(joined[-1], kind="stable")
    got = (stream.channels, stream.pulse_indices, stream.timestamps_ps)
    for column, want in zip(got, joined):
        assert_array_equal(column, want[order], strict=True)


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
    stream = generate_mzi_stream(cfg).to_stream()
    # with zero jitter every start click sits exactly on a slot boundary
    starts = stream.channels == START_CHANNEL
    pulses = stream.pulse_indices[starts]
    rel = stream.timestamps_ps[starts] - pulses * cfg.rep_period * 1e12
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
    stream = EventStream(
        channels=np.array([TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL,
                           TRIGGER_CHANNEL, START_CHANNEL]),
        pulse_indices=np.array([0, 0, 0, 9, 9]),
        timestamps_ps=np.array([-35.5, 1e-05, 0.30000000000000004, 1e+16, 1e+16]),
        n_pulses=10, seed=7, rep_period=12.5e-9)
    path = tmp_path / "events.csv"
    stream.save(path)
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
    loaded = EventStream.load(path)
    assert loaded.n_pulses == stream.n_pulses
    assert loaded.seed == stream.seed
    assert loaded.rep_period == stream.rep_period
    assert_array_equal(loaded.channels, stream.channels)
    assert_array_equal(loaded.pulse_indices, stream.pulse_indices)
    # repr-based serialization is lossless for float64
    assert_array_equal(loaded.timestamps_ps, stream.timestamps_ps)


def test_stream_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0,0.0\n")
    with pytest.raises(ValueError):
        EventStream.load(path)


_HERALDED_KINDS = ("spdc", "spdc_thermal", "single_photon")


def _herald_weights(config):
    """w_k = P(k pairs) P(herald | k), whose sum is the herald probability."""
    p_k = pair_distribution(config)
    return p_k * _click_prob(config.det1_efficiency, config.det1_dark, np.arange(len(p_k)))


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
    hidx, k = _herald(np.random.Generator(np.random.Philox(seed)), cfg, m)
    assert hidx.dtype == np.int64 and k.dtype == np.int64 and len(hidx) == len(k)
    assert np.all(np.diff(hidx) > 0) and (not len(hidx) or 0 <= hidx[0] <= hidx[-1] < m)
    w = _herald_weights(cfg)
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
        hidx, k = _herald(np.random.Generator(np.random.Philox(7)), cfg, CHUNK_PULSES)
        assert hidx.dtype == np.int64 and k.dtype == np.int64
        assert len(hidx) == 0 and len(k) == 0


def test_herald_at_certain_click_takes_every_pulse():
    # the ideal source heralds every pulse with one pair and draws nothing
    ideal = ExperimentConfig(source_kind="single_photon", det1_efficiency=1.0, det1_dark=0.0)
    rng = np.random.Generator(np.random.Philox(5))
    hidx, k = _herald(rng, ideal, 1000)
    assert_array_equal(hidx, np.arange(1000), strict=True)
    assert_array_equal(k, np.ones(1000, dtype=np.int64), strict=True)
    assert rng.random() == np.random.Generator(np.random.Philox(5)).random()
    # a dark count in every gate heralds every pulse too, with k drawn from p_k
    dark = ExperimentConfig(mean_pairs=0.5, det1_efficiency=0.3, det1_dark=1.0)
    hidx, k = _herald(np.random.Generator(np.random.Philox(5)), dark, 1000)
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
        _, k = _herald(_EdgeUniforms(uniforms), cfg, 20_000)
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
    _, k = _herald(_EdgeUniforms(uniforms), cfg, 20_000)
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
       seed=st.integers(0, 2**32 - 1))
def test_timebin_slots_match_oracle(kind, mu, eff1, dark1, eff2, dark2, transmittance,
                                    delay_frac, jitter_frac, seed):
    # noise-free, a herald's signal reaches channel 2 with q = s_chain * eff2 / 2
    # at -delay, 0, +delay in the ratio 1:2:1, and a dark count (d) lands in
    # the central slot; the first click per trigger falls in each slot as below
    rep = ExperimentConfig().rep_period
    cfg = ExperimentConfig(source_kind=kind, mean_pairs=mu, det1_efficiency=eff1,
                           det1_dark=dark1, det2_efficiency=eff2, det2_dark=dark2,
                           extra_transmittance=transmittance, noise_coeff=0.0,
                           mzi_delay=delay_frac * rep,
                           jitter_sigma=jitter_frac * delay_frac * rep,
                           n_pulses=200_000, seed=seed)
    clicks = first_clicks(generate_mzi_stream(cfg), TRIGGER_CHANNEL, START_CHANNEL)
    delays, _ = pair_delays(clicks)
    n_trigger = len(clicks.trigger_pulses)
    slot = np.round(delays / (cfg.mzi_delay * 1e12))
    # a slot's edges, delay / 2 from its centre, lie 7 or more deviations of
    # the trigger and start jitter combined away from it
    assert set(slot.tolist()) <= {-1.0, 0.0, 1.0}
    q, d = 0.5 * cfg.chain_efficiency() * eff2, dark2
    want = {"early": q / 4.0, "central": q / 2.0 + d * (1.0 - 0.75 * q),
            "late": q / 4.0 * (1.0 - d), "none": (1.0 - q) * (1.0 - d)}
    got = {"early": int(np.sum(slot == -1.0)), "central": int(np.sum(slot == 0.0)),
           "late": int(np.sum(slot == 1.0)), "none": n_trigger - len(delays)}
    pulls = {name: _pull(got[name], n_trigger, p) for name, p in want.items()}
    assert all(abs(pull) <= 5.0 for pull in pulls.values()), (pulls, want, got, n_trigger)

"""End-to-end experiment drivers: sweep, correlation run, arrival
histogram, and tomography, including their output files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qfcsim import experiments
from qfcsim.config import PRESETS, ExperimentConfig
from qfcsim.experiments import (
    analyze_g2,
    g2_report,
    reconstruct,
    run_efficiency_sweep,
    run_g2_experiment,
    run_mzi_histogram,
    run_tomography_experiment,
    tomography_report,
    write_g2,
    write_sweep,
    write_tomography,
)
from qfcsim.metrics import chsh_assessment, concurrence, eof_of_concurrence, fidelity
from qfcsim.qubits import PHI_PLUS
from qfcsim.tomography import load_records, mle_reconstruct
from qfcsim.counting import (CoincidenceWindow, CountSummary, FirstClicks, count_summary,
                             delay_histogram, first_clicks, pair_delays, select_window)
from qfcsim.sources import START_CHANNEL, TRIGGER_CHANNEL, generate_mzi_stream

from test_counting import columns_of


def test_sweep_default_grid_and_fit():
    cfg = ExperimentConfig()
    res = run_efficiency_sweep(cfg)
    assert res.powers_w[0] == 0.0
    assert res.powers_w[-1] == pytest.approx(cfg.pump_power)
    assert len(res.powers_w) == 351  # 2 mW steps over 0..0.7 W
    assert res.fit is not None
    assert abs(res.fit.peak - 0.62) < 1e-9
    assert abs(res.fit.coeff - 3.6) < 1e-9
    # the sampled maximum sits below the true peak power on this grid
    assert abs(res.peak_power_w - res.fit.peak_power_w) < 2e-3


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sweep_table_is_the_scalar_law(name):
    # on every preset's grid the one array evaluation of the law equals the
    # scalar reference bit for bit
    cfg = PRESETS[name]()
    res = run_efficiency_sweep(cfg)
    reference = [cfg.eff_peak * math.sin(math.sqrt(cfg.eff_coeff * p)) ** 2
                 for p in res.powers_w]
    assert res.efficiencies.tolist() == reference


def test_sweep_evaluates_the_law_once(monkeypatch):
    # the whole grid goes through the law in one call, not one per power
    calls = []
    law = experiments.conversion_efficiency

    def counted(*args):
        calls.append(args)
        return law(*args)

    monkeypatch.setattr(experiments, "conversion_efficiency", counted)
    res = run_efficiency_sweep(PRESETS["calibrated_tomo"]())
    assert len(calls) == 1
    assert len(res.efficiencies) == 351


def test_sweep_degenerate_grid_records_fit_error(tmp_path):
    # at 1 mW the 2 mW grid has two points, too few to fit: the error is
    # recorded and written instead of raised
    short = run_efficiency_sweep(ExperimentConfig(pump_power=1e-3))
    assert short.powers_w.tolist() == [0.0, 1e-3]
    assert short.fit is None
    assert "three distinct powers" in short.fit_error
    write_sweep(short, tmp_path)
    fit_lines = dict(line.split("=", 1)
                     for line in (tmp_path / "sweep_fit.txt").read_text().splitlines())
    assert fit_lines["fit_error"] == short.fit_error
    assert "peak" not in fit_lines


def test_write_sweep_files(tmp_path):
    cfg = ExperimentConfig()
    res = run_efficiency_sweep(cfg)
    paths = write_sweep(res, tmp_path)
    table = (tmp_path / "sweep.csv").read_text().splitlines()
    assert table[0] == "power_w,efficiency"
    assert len(table) == 352
    first_power = float(table[1].split(",")[0])
    assert first_power == 0.0
    fit_lines = dict(line.split("=", 1)
                     for line in (tmp_path / "sweep_fit.txt").read_text().splitlines())
    assert float(fit_lines["peak"]) == pytest.approx(0.62, abs=1e-9)
    assert float(fit_lines["coeff"]) == pytest.approx(3.6, abs=1e-9)
    assert fit_lines["coeff_unit"] == "per_W"
    assert float(fit_lines["peak_power_w"]) == pytest.approx(0.6853891945200943)
    assert all(p.exists() for p in paths)


def test_g2_experiment_is_deterministic():
    cfg = PRESETS["calibrated_g2"](seed=121)
    cfg.n_pulses = 300_000
    a = run_g2_experiment(cfg)
    b = run_g2_experiment(cfg)
    assert a.value == b.value
    assert a.summary == b.summary
    assert a.sidebands == b.sidebands
    assert not a.insufficient
    assert set(a.sidebands) <= {n for k in range(1, 6) for n in (k, -k)}


def test_g2_insufficient_run_yields_nan():
    cfg = PRESETS["calibrated_g2"](seed=3)
    cfg.n_pulses = 2000  # ~70 triggers, below the opportunity floor
    # no events at all: the herald never fires
    empty = ExperimentConfig(det1_efficiency=0.0, det1_dark=0.0, n_pulses=50, seed=1)
    for config in (cfg, empty):
        res = run_g2_experiment(config)
        assert res.insufficient
        assert math.isnan(res.value)
        assert math.isnan(res.std_error)
        # every sideband is skipped, and so is their pooled mean
        assert res.sidebands == {}
        assert math.isnan(res.sideband_mean) and math.isnan(res.sideband_pull)
    assert res.summary.n_trigger == 0
    assert res.histogram.mass == 0


def test_pooled_sideband_pull_is_small():
    # distant pulses are uncorrelated, so the pooled sideband level sits at 1
    # within its Poisson error bar, heralded-sparse and dense alike
    dense = PRESETS["ideal_g2"]()
    dense.n_pulses = 400_000
    for cfg in (PRESETS["calibrated_g2"](), dense):
        res = run_g2_experiment(cfg)
        assert len(res.sidebands) == 10
        assert abs(res.sideband_pull) <= 5.0, (cfg.source_kind, res.sideband_pull)


def test_sideband_errors_are_first_order_poisson():
    # every pulse triggers and only the even ones click, 40 ps apart: the
    # odd offsets pair no clicks, so their g2 is 0 with no error bar
    trigger = np.arange(1000, dtype=np.uint32)
    even = trigger[::2]
    clicks = FirstClicks(trigger, even, even * 1e3 + 10.0, even, even * 1e3 + 50.0, 1e3)
    window = CoincidenceWindow(1e-9)
    report = g2_report(analyze_g2(clicks, window))
    keys = list(report)
    for n in (1, -1, 2, -2, 5, -5):
        counts = count_summary(clicks, window, n)[0]
        value, error = report[f"g2_offset_{n}"], report[f"g2_offset_{n}_error"]
        assert keys.index(f"g2_offset_{n}_error") == keys.index(f"g2_offset_{n}") + 1
        if n % 2:
            assert counts.n_coincidence == 0 and value == 0.0 and math.isnan(error)
        else:
            assert counts.n_coincidence > 0
            assert error == pytest.approx(value * math.sqrt(
                1.0 / counts.n_coincidence + 1.0 / counts.n_start + 1.0 / counts.n_stop),
                rel=1e-14)


def test_write_g2_files(tmp_path):
    cfg = PRESETS["calibrated_g2"](seed=121)
    cfg.n_pulses = 300_000
    res = run_g2_experiment(cfg)
    write_g2(res, tmp_path)
    text = (tmp_path / "g2_summary.txt").read_text()
    values = dict(line.split("=", 1) for line in text.splitlines())
    assert list(values)[:4] == ["n_trigger", "n_start", "n_stop", "n_coincidence"]
    assert CountSummary(*(int(values[k]) for k in list(values)[:4])) == res.summary
    assert float(values["g2_zero"]) == res.value
    assert values["insufficient"] == "False"
    # the pooled sideband keys come after every other key
    assert list(values)[-3:] == ["sideband_mean", "sideband_mean_error", "sideband_pull"]
    # each estimated sideband's error follows it
    offsets = [key for key in values if key.startswith("g2_offset_")]
    assert offsets == [f"g2_offset_{n}{end}" for n in sorted(res.sidebands)
                       for end in ("", "_error")]
    assert float(values["sideband_mean"]) == res.sideband_mean
    assert float(values["sideband_pull"]) == res.sideband_pull
    hist_lines = (tmp_path / "g2_histogram.csv").read_text().splitlines()
    assert hist_lines[0] == "delay_ps,count"
    mass = sum(int(line.split(",")[1]) for line in hist_lines[1:])
    assert mass == res.histogram.mass


def _noisy_mzi_config():
    """Calibrated tomography run with strong pump noise and dark counts, so
    a pulse's earliest start click is often a noise or dark click."""
    cfg = PRESETS["calibrated_tomo"](seed=31)
    cfg.source_kind = "spdc_thermal"
    cfg.noise_coeff, cfg.det2_dark, cfg.n_pulses = 3.0, 1e-2, 300_000
    return cfg


def _long_delay_mzi_config():
    """A 4 ns interferometer delay spreads the noise over +-8 ns, more than
    half the 12.2 ns period, so start clicks leave pulse order."""
    cfg = PRESETS["calibrated_tomo"](seed=32)
    cfg.mzi_delay, cfg.mean_pairs, cfg.det1_efficiency = 4e-9, 0.5, 1.0
    cfg.noise_coeff, cfg.n_pulses = 20.0, 200_000
    return cfg


def _with_second_start_clicks(stream):
    """``stream`` with a copy of every start click appended to its chunk,
    500 ps earlier for an even pulse and later for an odd one."""
    chunks = []
    for chunk in stream.chunks:
        pulses, times = chunk[START_CHANNEL]
        copies = times + np.where(pulses % 2 == 0, -500.0, 500.0)
        chunks.append({**chunk, START_CHANNEL: (np.concatenate([pulses, pulses]),
                                                np.concatenate([times, copies]))})
    return replace(stream, chunks=chunks)


@pytest.mark.parametrize("make_config", [_noisy_mzi_config, _long_delay_mzi_config])
def test_mzi_histogram_bins_the_earliest_start_click_per_pulse(make_config, monkeypatch):
    # the generator keeps one start click per herald; a stream whose pulses
    # click twice is binned at each pulse's earliest click, as the reference
    # keeps it by lexsort + unique
    cfg = make_config()
    channels, stream_pulses, stream_times = columns_of(generate_mzi_stream(cfg))
    start = channels == START_CHANNEL
    assert len(np.unique(stream_pulses[start])) == np.count_nonzero(start)
    # in time order, only the long delay's start clicks leave pulse order
    assert np.any(np.diff(stream_pulses[start]) < 0) == (make_config is _long_delay_mzi_config)
    monkeypatch.setattr(experiments, "generate_mzi_stream",
                        lambda config: _with_second_start_clicks(generate_mzi_stream(config)))
    channels, stream_pulses, stream_times = columns_of(experiments.generate_mzi_stream(cfg))
    start = channels == START_CHANNEL
    pulses, times = stream_pulses[start], stream_times[start]
    order = np.lexsort((times, pulses))
    pulses, times = pulses[order], times[order]
    _, first = np.unique(pulses, return_index=True)
    assert len(first) == len(pulses) // 2
    trig = channels == TRIGGER_CHANNEL
    _, i_trig, i_start = np.intersect1d(stream_pulses[trig], pulses[first],
                                        assume_unique=True, return_indices=True)
    delays = times[first][i_start] - stream_times[trig][i_trig]
    want = delay_histogram(delays, bin_width=50e-12)
    got = run_mzi_histogram(cfg)
    assert_array_equal(got.centers_ps, want.centers_ps, strict=True)
    assert_array_equal(got.counts, want.counts, strict=True)


@pytest.mark.parametrize("make_config", [_noisy_mzi_config, _long_delay_mzi_config])
def test_mzi_postselection_equals_select_window(make_config):
    cfg = make_config()
    kept = select_window(generate_mzi_stream(cfg),
                         CoincidenceWindow(cfg.postselect_window),
                         start_channel=TRIGGER_CHANNEL, stop_channel=START_CHANNEL)
    delays, _ = pair_delays(first_clicks(kept, TRIGGER_CHANNEL, START_CHANNEL))
    want = delay_histogram(delays, bin_width=50e-12)
    got = run_mzi_histogram(cfg, postselect=True)
    assert want.mass > 0
    assert_array_equal(got.centers_ps, want.centers_ps, strict=True)
    assert_array_equal(got.counts, want.counts, strict=True)


def test_mzi_histogram_slot_weights():
    cfg = ExperimentConfig(
        source_kind="single_photon",
        pump_power=(math.pi / 2.0) ** 2 / 3.6,
        eff_peak=1.0, extra_transmittance=1.0,
        noise_coeff=0.0, pump_linewidth=0.0,
        det1_efficiency=1.0, det1_dark=0.0,
        det2_efficiency=1.0, det2_dark=0.0,
        n_pulses=200_000, seed=13,
    )
    hist = run_mzi_histogram(cfg)
    delay_ps = cfg.mzi_delay * 1e12
    areas = {}
    for name, center in (("early", -delay_ps), ("central", 0.0), ("late", delay_ps)):
        sel = np.abs(hist.centers_ps - center) <= 450.0
        areas[name] = int(hist.counts[sel].sum())
    total = sum(areas.values())
    assert total == hist.mass  # nothing lands outside the three slots
    assert abs(areas["early"] / areas["central"] - 0.5) < 0.03
    assert abs(areas["late"] / areas["central"] - 0.5) < 0.03
    # post-selection keeps only the central slot
    kept = run_mzi_histogram(cfg, postselect=True)
    assert np.max(np.abs(kept.centers_ps[kept.counts > 0])) <= 100.0
    assert kept.mass < areas["central"] + 1
    assert kept.mass > 0.5 * areas["central"]


def test_tomography_source_only_fidelity():
    cfg = PRESETS["source_only_tomo"]()
    cfg.n_bootstrap = 6
    res = run_tomography_experiment(cfg)
    assert abs(res.fidelity - 0.95) < 0.02
    assert res.chsh.witness_violated
    assert res.errors["fidelity"] < 0.02
    assert not res.subtracted


def test_tomography_determinism_and_rate():
    cfg = PRESETS["calibrated_tomo"](seed=400)
    cfg.n_bootstrap = 0
    a = run_tomography_experiment(cfg)
    b = run_tomography_experiment(cfg)
    assert a.fidelity == b.fidelity
    assert_allclose(a.rho, b.rho, atol=0.0)
    assert a.errors == {}
    assert a.counts.dtype == np.int64
    assert_array_equal(a.durations_s, [cfg.duration_per_setting] * 16)
    total = int(a.counts.sum())
    assert a.mean_rate_hz == pytest.approx(total / (16 * cfg.duration_per_setting))


def _noise_floor(cfg):
    """round(n w / 4), the counts that the state's white noise of weight
    w = nu / (s + nu) puts on each product setting; 0 with the interface off."""
    s, nu = cfg.chain_efficiency(), cfg.noise_mean()
    return round(cfg.n_per_setting * nu / (s + nu) / 4) if cfg.interface else 0


def test_tomography_subtraction_floor_follows_the_noise_law():
    cfg = PRESETS["calibrated_tomo"](seed=401)
    cfg.n_bootstrap = 0
    raw = run_tomography_experiment(cfg)
    sub = run_tomography_experiment(cfg, subtract_bg=True)
    # 28,000 w / 4 = 1,996.86 counts per setting; a flat 0.2 Hz over
    # 10,000 s took 2,000
    floor = _noise_floor(cfg)
    assert floor == 1997
    # same simulated counts, reconstruction on the floored difference
    expected_counts = [max(0, count - floor) for count in raw.counts.tolist()]
    redone = mle_reconstruct(settings=raw.settings, counts=expected_counts)
    assert_allclose(sub.rho, redone.rho, atol=1e-12)
    assert sub.fidelity > raw.fidelity + 0.1


@pytest.mark.parametrize("preset", ["ideal_tomo", "calibrated_tomo", "source_only_tomo"],
                         ids="{}_config".format)
@pytest.mark.parametrize("subtract", [False, True])
def test_tomo_point_fit_equals_the_one_row_fit(preset, subtract):
    # tomo fits its counts as row 0 of the bootstrap batch and analyze
    # --counts fits them alone; their reports must agree exactly
    cfg = PRESETS[preset]()
    res = run_tomography_experiment(cfg, subtract_bg=subtract)
    fitted = np.maximum(res.counts - _noise_floor(cfg), 0) if subtract else res.counts
    alone = mle_reconstruct(res.settings, fitted)
    assert np.array_equal(res.mle.rho, alone.rho)
    assert res.mle.iterations == alone.iterations
    assert res.mle.converged == alone.converged
    assert res.mle.log_likelihood == alone.log_likelihood
    assert len(res.bootstrap) == cfg.n_bootstrap


def test_tomography_report_and_files(tmp_path):
    cfg = PRESETS["calibrated_tomo"](seed=402)
    cfg.n_bootstrap = 4
    res = run_tomography_experiment(cfg)
    report = tomography_report(res)
    for key in ("density_matrix", "fidelity", "concurrence",
                "entanglement_of_formation", "chsh_s_max", "witness_fidelity",
                "witness_violated", "background_subtracted",
                "mean_count_rate_hz", "mle_iterations", "mle_converged",
                "log_likelihood", "fidelity_error", "s_max_error"):
        assert key in report
    assert list(report)[-2:] == ["bootstrap_mle_iterations", "bootstrap_mle_converged"]
    assert report["bootstrap_mle_iterations"] == [fit.iterations for fit in res.bootstrap]
    assert len(res.bootstrap) == 4 and report["bootstrap_mle_converged"] is True
    paths = write_tomography(res, tmp_path)
    assert all(p.exists() for p in paths)
    loaded = json.loads((tmp_path / "tomography.json").read_text())
    assert loaded["fidelity"] == pytest.approx(res.fidelity)
    # saved counts reconstruct to the same state
    settings, counts, durations = load_records(tmp_path / "tomo_counts.csv")
    assert_array_equal(counts, res.counts)
    assert_array_equal(durations, res.durations_s)
    again = mle_reconstruct(settings, counts)
    assert_allclose(again.rho, res.mle.rho, atol=1e-9)


def test_subtracted_bootstrap_has_no_long_fit_tail():
    # Subtraction zeroes counts and puts the replicates' optima on the
    # boundary of the state set, where a slow fit shows as one long row
    # (an iteration count, so the check is deterministic).
    res = run_tomography_experiment(PRESETS["calibrated_tomo"](seed=22), subtract_bg=True)
    iterations = tomography_report(res)["bootstrap_mle_iterations"]
    assert len(iterations) == 32
    assert max(iterations) <= 2_000


@pytest.mark.parametrize("subtract", [False, True])
def test_bootstrap_errors_equal_one_fit_per_replicate(subtract):
    cfg = PRESETS["calibrated_tomo"](seed=402)
    cfg.n_bootstrap = 4
    res = run_tomography_experiment(cfg, subtract_bg=subtract)
    samples = {"fidelity": [], "concurrence": [], "eof": [], "s_max": []}
    for b in range(cfg.n_bootstrap):
        brng = np.random.Generator(np.random.Philox(np.random.SeedSequence((402, 0, 2, b))))
        # one scalar draw per setting, in setting order
        resampled = [brng.poisson(count) for count in res.counts.tolist()]
        if subtract:
            resampled = np.maximum(np.array(resampled) - _noise_floor(cfg), 0)
        fit = mle_reconstruct(res.settings, resampled)
        assert fit.iterations == res.bootstrap[b].iterations
        samples["fidelity"].append(fidelity(fit.rho, PHI_PLUS))
        samples["concurrence"].append(concurrence(fit.rho))
        samples["eof"].append(eof_of_concurrence(concurrence(fit.rho)))
        samples["s_max"].append(chsh_assessment(fit.rho).s_max)
    assert res.errors == {key: float(np.std(vals)) for key, vals in samples.items()}


def test_zero_replicate_is_left_out_of_the_errors():
    # an all-zero replicate is counted, not fitted: the result equals the
    # one without it, and a row that only subtraction zeroes counts too
    cfg = PRESETS["calibrated_tomo"](seed=402)
    cfg.n_bootstrap = 3
    res = run_tomography_experiment(cfg)
    # a floor of 1,000 counts per setting
    zero, floored = np.zeros_like(res.counts), np.full_like(res.counts, 1000)
    replicates = [res.counts + 5, res.counts + 9]
    alone = reconstruct(res.settings, res.counts, res.durations_s, 1000.0, replicates)
    mixed = reconstruct(res.settings, res.counts, res.durations_s, 1000.0,
                        [zero, replicates[0], floored, replicates[1]])
    assert alone.zero_replicates == 0 and mixed.zero_replicates == 2
    assert mixed.errors == alone.errors and len(mixed.errors) == 4
    assert [fit.iterations for fit in mixed.bootstrap] == [
        fit.iterations for fit in alone.bootstrap]
    assert np.array_equal(mixed.rho, alone.rho) and not mixed.insufficient

"""Command-line interface: subcommands, exit codes, and reproducibility.

Commands run in-process through main(argv) for speed; one subprocess
check confirms the installed entry point works at all.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qfcsim
from qfcsim import cli, experiments, sources, tomography
from qfcsim.cli import main
from qfcsim.config import PRESETS, ExperimentConfig
from qfcsim.qubits import noise_weight
from qfcsim.sources import EventStream
from qfcsim.tomography import RECORD_HEADER, load_records, save_records, standard_settings

from test_sources import BAD_STREAMS


def _pairs(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


@pytest.fixture()
def g2_cfg_path(tmp_path):
    cfg = PRESETS["calibrated_g2"](seed=14)
    cfg.n_pulses = 120_000
    path = tmp_path / "g2.cfg"
    cfg.to_file(path)
    return path


@pytest.fixture()
def tomo_cfg_path(tmp_path):
    cfg = PRESETS["calibrated_tomo"](seed=22)
    cfg.n_per_setting = 2000.0
    cfg.duration_per_setting = 714.0
    cfg.n_bootstrap = 2
    path = tmp_path / "tomo.cfg"
    cfg.to_file(path)
    return path


def test_sweep_command(tmp_path, g2_cfg_path, capsys):
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(g2_cfg_path), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    fit = dict(line.split("=", 1)
               for line in (out / "sweep_fit.txt").read_text().splitlines())
    assert abs(float(fit["peak"]) - 0.62) < 1e-6
    printed = capsys.readouterr().out
    assert "sweep.csv" in printed


def test_g2_command_reruns_byte_identical(tmp_path, g2_cfg_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["g2", "--config", str(g2_cfg_path), "--save-stream"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("g2_summary.txt", "g2_histogram.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analyze_stream_matches_run(tmp_path, g2_cfg_path, capsys):
    out = tmp_path / "run"
    assert main(["g2", "--config", str(g2_cfg_path), "--out", str(out),
                 "--save-stream"]) == 0
    an = tmp_path / "an"
    assert main(["analyze", "--stream", str(out / "events.csv"),
                 "--out", str(an)]) == 0
    # at the run's own 1 ns window the saved stream gives the run's report
    assert (an / "count_summary.txt").read_bytes() == (out / "g2_summary.txt").read_bytes()
    assert (an / "histogram.csv").read_bytes() == (out / "g2_histogram.csv").read_bytes()


def test_first_clicks_are_extracted_once_per_channel(tmp_path, g2_cfg_path, monkeypatch,
                                                     capsys):
    # every offset is counted from one index: three extractions per command,
    # generated or loaded, the trigger channel's as a pulse list alone
    calls = []
    extract = EventStream.first_event_times
    monkeypatch.setattr(EventStream, "first_event_times", lambda self, channel, times=True:
                        calls.append((channel, times)) or extract(self, channel, times))
    out = tmp_path / "run"
    assert main(["g2", "--config", str(g2_cfg_path), "--out", str(out),
                 "--save-stream"]) == 0
    assert sorted(calls) == [(1, False), (2, True), (3, True)]
    calls.clear()
    assert main(["analyze", "--stream", str(out / "events.csv"),
                 "--out", str(tmp_path / "an")]) == 0
    assert sorted(calls) == [(1, False), (2, True), (3, True)]


def test_analyze_refused_flag_leaves_no_directory(tmp_path, capsys):
    stream = tmp_path / "good.csv"
    stream.write_text("# n_pulses=10 seed=1 rep_period_ps=12195.0\n1,0,0.0\n")
    counts = tmp_path / "counts.csv"
    save_records(standard_settings(), [100] * 16, [1.0] * 16, counts)
    for args in (["--stream", str(stream), "--bin-width=0ps"],
                 ["--stream", str(stream), "--window=-1ns"],
                 ["--counts", str(counts), "--bg-rate=-1Hz"]):
        out = tmp_path / "out"
        assert main(["analyze", *args, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("mode, flags", [
    ("--stream", ["--bg-rate=-5Hz"]),
    ("--stream", ["--bg-rate=0.2Hz"]),
    ("--counts", ["--window=-1ns", "--bin-width=garbage"]),
    ("--counts", ["--window=1ns"]),
    ("--counts", ["--bin-width=50ps"]),
], ids=["stream_bad_bg_rate", "stream_bg_rate", "counts_bad_window_and_bin_width",
        "counts_window", "counts_bin_width"])
def test_analyze_refuses_the_flags_of_the_other_mode(tmp_path, mode, flags, capsys):
    # --bg-rate belongs to count records, --window and --bin-width to streams;
    # each mode read none of the other's flags, and exited 0 whatever they held
    stream = tmp_path / "good.csv"
    stream.write_text("# n_pulses=10 seed=1 rep_period_ps=12195.0\n1,0,0.0\n")
    counts = tmp_path / "counts.csv"
    save_records(standard_settings(), [100] * 16, [1.0] * 16, counts)
    out = tmp_path / "out"
    path = stream if mode == "--stream" else counts
    assert main(["analyze", mode, str(path), *flags, "--out", str(out)]) == 2
    _assert_one_line_error(capsys, f"config error: analyze {mode} takes no ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["g2"], ["tomo", "--timebin-histogram"]],
                         ids=["g2", "tomo"])
def test_jitter_far_above_rep_period_exits_2(tmp_path, command, capsys):
    # a valid jitter of 8200 periods spreads the delays over more than the
    # histogram's 2^20 bins of 50 ps; that was a numerical failure, exit 3
    cfg = PRESETS["calibrated_g2"](seed=14)
    cfg.jitter_sigma, cfg.n_pulses, cfg.n_bootstrap = 1e-4, 200_000, 2
    path = tmp_path / "jitter.cfg"
    cfg.to_file(path)
    capsys.readouterr()
    assert main([command[0], "--config", str(path), "--out", str(tmp_path / "o"),
                 *command[1:]]) == 2
    assert "do not fit in 1048576 bins" in capsys.readouterr().err


def test_seed_override_changes_stream(tmp_path, g2_cfg_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["g2", "--config", str(g2_cfg_path), "--out", str(out1),
                 "--save-stream"]) == 0
    assert main(["g2", "--config", str(g2_cfg_path), "--out", str(out2),
                 "--save-stream", "--seed", "999"]) == 0
    assert (out1 / "events.csv").read_bytes() != (out2 / "events.csv").read_bytes()


def test_tomo_command_and_analyze_counts(tmp_path, tomo_cfg_path, capsys):
    out = tmp_path / "tomo_out"
    assert main(["tomo", "--config", str(tomo_cfg_path), "--out", str(out),
                 "--timebin-histogram"]) == 0
    report = json.loads((out / "tomography.json").read_text())
    assert 0.0 <= report["fidelity"] <= 1.0
    assert (out / "timebin_histogram.csv").exists()
    an = tmp_path / "an_counts"
    assert main(["analyze", "--counts", str(out / "tomo_counts.csv"),
                 "--out", str(an)]) == 0
    re_report = json.loads((an / "tomography.json").read_text())
    assert re_report["fidelity"] == pytest.approx(report["fidelity"], abs=1e-12)
    # only a bootstrapped run reports its replicate fits
    assert len(report["bootstrap_mle_iterations"]) == 2
    assert "bootstrap_mle_iterations" not in re_report
    # a --bg-rate subtracts, and gives a different (cleaner) state
    an_sub = tmp_path / "an_sub"
    assert main(["analyze", "--counts", str(out / "tomo_counts.csv"), "--bg-rate", "0.2Hz",
                 "--out", str(an_sub)]) == 0
    sub_report = json.loads((an_sub / "tomography.json").read_text())
    assert sub_report["fidelity"] > report["fidelity"]


@pytest.mark.parametrize("subtract", [False, True])
def test_analyze_counts_report_equals_tomo_report(tmp_path, tomo_cfg_path, subtract, capsys):
    # analyze --counts fits tomo's raw count file through the same helper as
    # tomo, so every key that both reports carry agrees exactly; given the
    # rate of the state's noise floor, it subtracts what tomo --subtract-bg does
    cfg = ExperimentConfig.from_file(tomo_cfg_path)
    bg_rate = cfg.n_per_setting * noise_weight(cfg) / (4 * cfg.duration_per_setting)
    out, an = tmp_path / "tomo", tmp_path / "an"
    assert main(["tomo", "--config", str(tomo_cfg_path), "--out", str(out),
                 *(["--subtract-bg"] if subtract else [])]) == 0
    assert main(["analyze", "--counts", str(out / "tomo_counts.csv"), "--out", str(an),
                 *(["--bg-rate", repr(bg_rate)] if subtract else [])]) == 0
    tomo_report = json.loads((out / "tomography.json").read_text())
    an_report = json.loads((an / "tomography.json").read_text())
    shared = tomo_report.keys() & an_report.keys()
    assert {"density_matrix", "fidelity", "chsh_s_max", "mle_iterations"} <= shared
    assert {k: an_report[k] for k in shared} == {k: tomo_report[k] for k in shared}


@pytest.mark.parametrize("n_bootstrap", [0, 2])
def test_tomo_fits_one_batch_per_command(tmp_path, tomo_cfg_path, n_bootstrap, monkeypatch,
                                         capsys):
    # the measured counts are row 0 of the batch that fits the replicates
    cfg = ExperimentConfig.from_file(tomo_cfg_path)
    cfg.n_bootstrap = n_bootstrap
    cfg_path = tmp_path / "tomo_b.cfg"
    cfg.to_file(cfg_path)
    rows, batch = [], tomography.mle_reconstruct_batch

    def counted(settings, counts, **kwargs):
        rows.append(len(counts))
        return batch(settings, counts, **kwargs)

    monkeypatch.setattr(tomography, "mle_reconstruct_batch", counted)
    monkeypatch.setattr(experiments, "mle_reconstruct_batch", counted)
    for extra in ([], ["--subtract-bg"]):
        rows.clear()
        out = tmp_path / f"out{len(extra)}"
        assert main(["tomo", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        assert rows == [1 + n_bootstrap]
        report = json.loads((out / "tomography.json").read_text())
        bootstrap_keys = {k for k in report if k.startswith("bootstrap_")}
        assert bootstrap_keys == (set() if n_bootstrap == 0 else
                                  {"bootstrap_mle_iterations", "bootstrap_mle_converged"})
        assert any(k.endswith("_error") for k in report) == (n_bootstrap > 0)


def test_exit_code_on_config_errors(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["g2", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_pulses=lots\n")
    assert main(["g2", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wavelength=780\n")
    assert main(["sweep", "--config", str(unknown), "--out", str(tmp_path / "o")]) == 2
    fractional_seed = tmp_path / "seed.cfg"
    fractional_seed.write_text("seed=1.5\n")
    assert main(["g2", "--config", str(fractional_seed), "--out", str(tmp_path / "o")]) == 2
    # unbounded, this truncation failed to allocate a 745 GiB pair ladder: exit 1
    huge_truncation = tmp_path / "truncation.cfg"
    huge_truncation.write_text("seed=1\nn_pulses=1000\npair_truncation=100000000000\n")
    capsys.readouterr()
    assert main(["g2", "--config", str(huge_truncation), "--out", str(tmp_path / "o")]) == 2
    assert "pair_truncation" in capsys.readouterr().err
    no_seed_header = tmp_path / "header.csv"
    no_seed_header.write_text("# n_pulses=10 rep_period_ps=12195.0\n1,0,0.0\n")
    assert main(["analyze", "--stream", str(no_seed_header), "--out", str(tmp_path / "o")]) == 2
    short_line = tmp_path / "line.csv"
    short_line.write_text("# n_pulses=10 seed=1 rep_period_ps=12195.0\n1,0\n")
    assert main(["analyze", "--stream", str(short_line), "--out", str(tmp_path / "o")]) == 2
    bad_counts = tmp_path / "counts.csv"
    bad_counts.write_text("0,0,0,0,12\n")
    assert main(["analyze", "--counts", str(bad_counts), "--out", str(tmp_path / "o")]) == 2
    settings = standard_settings()
    # too few settings to determine a state: three records, with or without
    # a count, or none at all
    three = tmp_path / "three_counts.csv"
    save_records(settings[:3], [100] * 3, [1.0] * 3, three)
    three_zero = tmp_path / "three_zero_counts.csv"
    save_records(settings[:3], [0] * 3, [1.0] * 3, three_zero)
    header_only = tmp_path / "header_counts.csv"
    header_only.write_text(RECORD_HEADER + "\n")
    # a count above int64 cannot be read
    huge_count = tmp_path / "huge_counts.csv"
    save_records(settings, [100] * 16, [1.0] * 16, huge_count)
    huge_count.write_text(huge_count.read_text().replace(",100,", ",9223372036854775808,", 1))
    for path in (three, three_zero, header_only, huge_count):
        assert main(["analyze", "--counts", str(path), "--out", str(tmp_path / "o")]) == 2
    # every count zero: no measurement to fit, which is reported, not refused
    all_zero = tmp_path / "zero_counts.csv"
    save_records(settings, [0] * 16, [1.0] * 16, all_zero)
    assert main(["analyze", "--counts", str(all_zero), "--out", str(tmp_path / "zero")]) == 0
    _assert_insufficient(json.loads((tmp_path / "zero" / "tomography.json").read_text()))
    header = "# n_pulses=10 seed=1 rep_period_ps=12195.0\n"
    for name, line in (("channel", "40000,0,1.0"), ("pulse", "1,99999999999999999999,1.0")):
        overflow = tmp_path / f"{name}_overflow.csv"
        overflow.write_text(header + line + "\n")
        assert main(["analyze", "--stream", str(overflow), "--out", str(tmp_path / "o")]) == 2
    good_stream = tmp_path / "good.csv"
    good_stream.write_text(header + "1,0,0.0\n")
    for flag in ("--bin-width=0ps", "--bin-width=-5ps", "--window=0ns"):
        assert main(["analyze", "--stream", str(good_stream), flag,
                     "--out", str(tmp_path / "o")]) == 2
    counts = tmp_path / "good_counts.csv"
    save_records(settings, [100] * 16, [1.0] * 16, counts)
    assert main(["analyze", "--counts", str(counts), "--bg-rate=-1Hz",
                 "--out", str(tmp_path / "o")]) == 2
    # non-finite numbers are refused where they enter: 1e999 parses to inf
    for name, line in (("pump", "pump_power=1e999"), ("delay", "mzi_delay=1e999s"),
                       ("period", "rep_period=1e999")):
        cfg = tmp_path / f"{name}_inf.cfg"
        cfg.write_text(f"seed=1\n{line}\n")
        for command in ("sweep", "g2", "tomo"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # a delay of half the period puts the +-delay slots in the neighbouring pulse
    half_period = tmp_path / "half_period_delay.cfg"
    half_period.write_text("seed=1\nmzi_delay=6.1e-9s\n")
    for command in ("g2", "tomo"):
        assert main([command, "--config", str(half_period), "--out", str(tmp_path / "o")]) == 2
    for name, text in (("nan_time", header + "2,0,nan\n"),
                       ("inf_time", header + "1,0,0.0\n2,0,inf\n"),
                       ("nan_period", header.replace("12195.0", "nan") + "1,0,0.0\n"),
                       ("negative_period", header.replace("12195.0", "-5") + "1,0,0.0\n")):
        stream = tmp_path / f"{name}.csv"
        stream.write_text(text)
        assert main(["analyze", "--stream", str(stream), "--out", str(tmp_path / "o")]) == 2
    rows = counts.read_text().splitlines()
    for name, row in (("nan_duration", rows[1].rsplit(",", 1)[0] + ",nan"),
                      ("inf_duration", rows[1].rsplit(",", 1)[0] + ",inf"),
                      ("zero_duration", rows[1].rsplit(",", 1)[0] + ",0"),
                      ("negative_duration", rows[1].rsplit(",", 1)[0] + ",-5"),
                      ("negative_count", rows[1].replace(",100,", ",-1,")),
                      ("nan_angle", "nan," + rows[1].split(",", 1)[1])):
        bad_file = tmp_path / f"{name}_counts.csv"
        bad_file.write_text("\n".join([rows[0], row] + rows[2:]) + "\n")
        for extra in ([], ["--bg-rate", "0.2Hz"]):
            assert main(["analyze", "--counts", str(bad_file), "--out",
                         str(tmp_path / "o")] + extra) == 2


def test_exit_code_on_usage_errors(tmp_path, g2_cfg_path, capsys):
    # argparse rejects unknown flags with status 2
    assert main(["g2", "--config", str(g2_cfg_path), "--frobnicate"]) == 2
    assert main(["warp", "--config", str(g2_cfg_path)]) == 2
    # analyze requires exactly one input
    assert main(["analyze", "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", "--stream", "a", "--counts", "b",
                 "--out", str(tmp_path / "o")]) == 2


def test_unwritable_out_is_a_system_failure(tmp_path, g2_cfg_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # the output directory would sit under a regular file
    assert main(["sweep", "--config", str(g2_cfg_path), "--out", str(blocker / "o")]) == 1
    _assert_one_line_error(capsys, "system failure: ")


def test_exit_code_on_numerical_failure(tmp_path, tomo_cfg_path, monkeypatch, capsys):
    # a driver's ValueError is a numerical failure, exit 3, with a one-line message
    def failing(*args, **kwargs):
        raise ValueError("did not converge")

    monkeypatch.setattr(cli, "run_tomography_experiment", failing)
    out = tmp_path / "o"
    assert main(["tomo", "--config", str(tomo_cfg_path), "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "numerical failure: did not converge")
    _assert_no_artifact(out)


def _written_counts(out):
    return load_records(out / "tomo_counts.csv")[1]


def _assert_insufficient(report):
    """A report with no count to fit: flagged, NaN metrics, no error bars."""
    assert report["insufficient"] is True
    assert all(math.isnan(report[key]) for key in (
        "fidelity", "concurrence", "entanglement_of_formation", "chsh_s_max",
        "witness_fidelity", "log_likelihood"))
    assert report["mle_iterations"] == 0 and report["mle_converged"] is False
    assert not any(key.endswith("_error") or key.startswith("bootstrap_mle")
                   for key in report)


def test_zero_rows_of_one_count_tomo_are_flagged_not_fatal(tmp_path, capsys):
    # at one count per setting the counts or some replicates are all zero;
    # that made the whole batch fail (exit 3) for 14 of these 30 seeds
    cfg = PRESETS["calibrated_tomo"]()
    cfg.n_per_setting = 1.0
    path = tmp_path / "one.cfg"
    cfg.to_file(path)
    flagged, with_zero_replicates = [], []
    for seed in range(30):
        out = tmp_path / f"seed{seed}"
        assert main(["tomo", "--config", str(path), "--seed", str(seed),
                     "--out", str(out)]) == 0
        report = json.loads((out / "tomography.json").read_text())
        if not _written_counts(out).any():
            flagged.append(seed)
            _assert_insufficient(report)
            continue
        assert "insufficient" not in report
        # every replicate is either fitted or counted as all zero
        zeros = report.get("bootstrap_zero_replicates", 0)
        assert len(report["bootstrap_mle_iterations"]) + zeros == cfg.n_bootstrap
        if zeros:
            with_zero_replicates.append(seed)
    assert flagged == [29]
    assert with_zero_replicates == [1, 5, 6, 9, 10, 12, 14, 16, 17, 19, 22, 23, 28]


def test_analyze_counts_of_all_zero_tomo_is_insufficient(tmp_path, capsys):
    # seed 29 of the test above writes no count at all; analyze --counts
    # reports that file as tomo did, where it refused it as bad input (exit 2)
    cfg = PRESETS["calibrated_tomo"]()
    cfg.n_per_setting = 1.0
    path = tmp_path / "one.cfg"
    cfg.to_file(path)
    out, an = tmp_path / "tomo", tmp_path / "an"
    assert main(["tomo", "--config", str(path), "--seed", "29", "--out", str(out)]) == 0
    assert not _written_counts(out).any()
    assert main(["analyze", "--counts", str(out / "tomo_counts.csv"), "--out", str(an)]) == 0
    _assert_insufficient(json.loads((an / "tomography.json").read_text()))


def test_subtracted_tomo_below_its_floor_is_insufficient(tmp_path, capsys):
    # with no converted signal the state is pure noise (w = 1), so its floor
    # is round(2.04 / 4) = 1 count per setting; at seed 59 no count and no
    # replicate count is above it, though some counts are not zero
    cfg = PRESETS["calibrated_tomo"](seed=59)
    cfg.extra_transmittance, cfg.n_per_setting, cfg.n_bootstrap = 0.0, 2.04, 3
    path = tmp_path / "short.cfg"
    cfg.to_file(path)
    out = tmp_path / "o"
    assert main(["tomo", "--config", str(path), "--subtract-bg", "--out", str(out)]) == 0
    report = json.loads((out / "tomography.json").read_text())
    _assert_insufficient(report)
    assert report["background_subtracted"] is True
    assert report["bootstrap_zero_replicates"] == cfg.n_bootstrap
    # the raw counts and their rate are still written
    total = _written_counts(out).sum()
    assert total > 0
    assert report["mean_count_rate_hz"] == total / (16 * cfg.duration_per_setting)


def _analyze_counts_with_no_count_left(tmp_path, bg_rate, duration):
    path = tmp_path / "counts.csv"
    save_records(standard_settings(), [100] * 16, [duration] * 16, path)
    out = tmp_path / "o"
    assert main(["analyze", "--counts", str(path), f"--bg-rate={bg_rate}",
                 "--out", str(out)]) == 0
    report = json.loads((out / "tomography.json").read_text())
    _assert_insufficient(report)
    assert "bootstrap_zero_replicates" not in report


@pytest.mark.filterwarnings("error")
def test_analyze_counts_with_no_count_left_is_insufficient(tmp_path, capsys):
    # a background of 1 kHz over 1 s leaves no count to fit; that was a
    # numerical failure, exit 3
    _analyze_counts_with_no_count_left(tmp_path, "1kHz", 1.0)


@pytest.mark.filterwarnings("error")
def test_analyze_counts_with_floor_beyond_float_is_insufficient(tmp_path, capsys):
    # a floor beyond float is inf: every count is below it, with no warning
    _analyze_counts_with_no_count_left(tmp_path, "1e308Hz", 10.0)


@pytest.mark.parametrize("values", [{"pump_power": 0.0}, {"pump_power": 1e-310},
                                    {"pump_power": 2.0, "noise_coeff": 1e308}],
                         ids=["no_photon", "subnormal", "overflow"])
def test_tomo_with_no_surviving_photon_exits_2(tmp_path, values, capsys):
    # the converted state needs s + nu to be a normal float > 0: at 0 no
    # photon survives, and a subnormal or infinite sum gave no density matrix;
    # each was a numerical failure, exit 3.  validate accepts the first two,
    # and sweep and g2 run on them; it refuses a nu beyond float
    path = tmp_path / "dark.cfg"
    cfg = replace(PRESETS["calibrated_tomo"](), n_bootstrap=2)
    vars(cfg).update(values)  # unvalidated: the file is validated when tomo reads it
    cfg.to_file(path)
    error = ("config error: noise_coeff * pump_power=2.0 W must be finite"
             if "noise_coeff" in values else "config error: chain efficiency plus pump noise is ")
    for i, extra in enumerate(([], ["--subtract-bg"], ["--timebin-histogram"])):
        out = tmp_path / f"o{i}"
        assert main(["tomo", "--config", str(path), "--out", str(out), *extra]) == 2
        _assert_one_line_error(capsys, error)
        _assert_no_artifact(out)


@pytest.mark.parametrize("command", [["g2"], ["tomo"],
                                     ["tomo", "--subtract-bg", "--timebin-histogram"],
                                     ["sweep"]], ids=["g2", "tomo", "tomo_bg", "sweep"])
def test_pump_power_beyond_the_mixing_law_exits_2(tmp_path, command, capsys):
    # at 1e308 W, eff_coeff * pump_power overflows and sin(sqrt(inf)) was a
    # math domain error (sweep: an infinite grid length), exit 3; validate refuses it
    path = tmp_path / "bright.cfg"
    cfg = PRESETS["calibrated_tomo"]()
    cfg.pump_power = 1e308  # unvalidated: the file is validated when the command reads it
    cfg.to_file(path)
    out = tmp_path / "out"
    assert main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 2
    _assert_one_line_error(capsys, "config error: eff_coeff * pump_power=1e+308 W must be finite")
    _assert_no_artifact(out)


def test_sweep_grid_beyond_any_address_exits_2(tmp_path, capsys):
    # 2 mW steps up to 1e300 W are more elements than numpy can address, which
    # it refuses with a ValueError before allocating; that was exit 3
    path = tmp_path / "bright.cfg"
    replace(PRESETS["calibrated_tomo"](), pump_power=1e300).to_file(path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error: sweep grid up to 1e+300 W: ")
    _assert_no_artifact(out)


def test_g2_on_empty_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    ExperimentConfig(n_pulses=50, seed=1).to_file(path)
    out = tmp_path / "o"
    assert main(["g2", "--config", str(path), "--out", str(out)]) == 0
    assert "insufficient=True" in (out / "g2_summary.txt").read_text()


def test_g2_and_analyze_stream_share_sufficiency_rule(tmp_path, capsys):
    # 60 triggers: too few for g2(0) in both the run and the re-analysis
    cfg = PRESETS["ideal_g2"](seed=3)
    cfg.n_pulses = 60
    path = tmp_path / "short.cfg"
    cfg.to_file(path)
    run, an = tmp_path / "run", tmp_path / "an"
    assert main(["g2", "--config", str(path), "--out", str(run), "--save-stream"]) == 0
    assert main(["analyze", "--stream", str(run / "events.csv"), "--out", str(an)]) == 0
    run_vals = _pairs(run / "g2_summary.txt")
    an_vals = _pairs(an / "count_summary.txt")
    assert run_vals["n_trigger"] == an_vals["n_trigger"] == "60"
    assert run_vals["insufficient"] == "True"
    for key in ("g2_zero", "std_error"):
        assert run_vals[key] == an_vals[key] == "nan"


def test_analyze_stream_refuses_negative_n_pulses(tmp_path, capsys):
    for n_pulses, code in ((-5, 2), (0, 0)):
        stream = tmp_path / f"n_pulses_{n_pulses}.csv"
        stream.write_text(f"# n_pulses={n_pulses} seed=1 rep_period_ps=12195.0\n")
        assert main(["analyze", "--stream", str(stream), "--out",
                     str(tmp_path / f"out_{n_pulses}")]) == code


def test_analyze_stream_refuses_what_load_refuses(tmp_path, monkeypatch, capsys):
    # two-line blocks, so a time or pulse can go wrong at a block edge or in a later block
    monkeypatch.setattr(sources, "BLOCK_ROWS", 2)
    for name, text, _ in BAD_STREAMS:
        stream = tmp_path / f"{name}.csv"
        stream.write_text(text)
        out = tmp_path / name
        assert main(["analyze", "--stream", str(stream), "--out", str(out)]) == 2, name
        _assert_one_line_error(capsys, "config error: cannot analyze stream file")
        assert not out.exists()


def test_analyze_short_streams_report_nan(tmp_path, capsys):
    header = "# n_pulses=10 seed=1 rep_period_ps=12195.0\n"
    texts = {"header_only": header,
             "blank_lines": header + "\n1,0,0.0\n\n2,0,5.0\n3,0,9.0\n\n"}
    for name, text in texts.items():
        stream = tmp_path / f"{name}.csv"
        stream.write_text(text)
        out = tmp_path / name
        assert main(["analyze", "--stream", str(stream), "--out", str(out)]) == 0
        vals = _pairs(out / "count_summary.txt")
        assert vals["g2_zero"] == vals["std_error"] == "nan"
        # too short for any sideband: flagged, not raised
        assert vals["insufficient"] == "True"
        assert vals["sideband_mean"] == vals["sideband_mean_error"] == "nan"
        assert vals["sideband_pull"] == "nan"
        # no sideband, so no g2_offset_<n> and no g2_offset_<n>_error
        assert not any(key.startswith("g2_offset_") for key in vals)
    header_only = _pairs(tmp_path / "header_only" / "count_summary.txt")
    assert [header_only[k] for k in ("n_trigger", "n_start", "n_stop", "n_coincidence")] \
        == ["0"] * 4
    assert (tmp_path / "header_only" / "histogram.csv").read_text() == "delay_ps,count\n"
    assert _pairs(tmp_path / "blank_lines" / "count_summary.txt")["n_coincidence"] == "1"
    assert (tmp_path / "blank_lines" / "histogram.csv").read_text() == "delay_ps,count\n0.0,1\n"


def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err


def test_analyze_refuses_a_histogram_of_unbounded_span(tmp_path, capsys):
    header = "# n_pulses=2 seed=1 rep_period_ps=12195.0\n"
    far = tmp_path / "far.csv"  # delays of 0 and 1e16 ps in 50 ps bins
    far.write_text(header + "1,0,0.0\n2,0,0.0\n3,0,1e16\n"
                   "1,1,1.1e16\n2,1,1.1e16\n3,1,1.1e16\n")
    near = tmp_path / "near.csv"  # delays of 40 and -20 ps
    near.write_text(header + "1,0,0.0\n2,0,10.0\n3,0,50.0\n"
                    "1,1,12195.0\n3,1,12200.0\n2,1,12220.0\n")
    for stream, bin_width in ((far, "50ps"), (near, "1e-12ps"), (near, "1e-300ps")):
        out = tmp_path / f"{stream.stem}_{bin_width}"
        assert main(["analyze", "--stream", str(stream), "--out", str(out),
                     "--bin-width", bin_width]) == 2
        _assert_one_line_error(capsys, "config error: cannot analyze stream file: delays")
        assert not (out / "histogram.csv").exists()


def test_g2_refuses_a_histogram_of_unbounded_span(tmp_path, capsys):
    # 1 s of jitter spreads the zero-offset delays over about 1e11 bins: a
    # config the histogram cannot hold
    cfg = PRESETS["coherent_g2"](seed=5)
    cfg.mean_pairs, cfg.jitter_sigma, cfg.n_pulses = 5.0, 1.0, 2000
    path = tmp_path / "wide.cfg"
    cfg.to_file(path)
    assert main(["g2", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys, "config error: delays")


@pytest.mark.filterwarnings("default")
def test_analyze_rejects_non_integer_fields_without_warning_filters(tmp_path, capsys):
    # the suite turns warnings into errors; the reader must not rely on that
    header = "# n_pulses=10 seed=1 rep_period_ps=12195.0\n"
    for name, line in (("float_channel", "1.0,0,0.0"), ("wide_channel", "40000,0,0.0")):
        stream = tmp_path / f"{name}.csv"
        stream.write_text(header + line + "\n")
        assert main(["analyze", "--stream", str(stream), "--out", str(tmp_path / "o")]) == 2
    counts = tmp_path / "float_count.csv"
    save_records(standard_settings(), [100] * 16, [1.0] * 16, counts)
    counts.write_text(counts.read_text().replace(",100,", ",100.5,", 1))
    assert main(["analyze", "--counts", str(counts), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.filterwarnings("default")
def test_read_table_raises_on_lenient_loadtxt_cast(monkeypatch):
    # numpy releases that still cast "1.0" into an integer column warn, and
    # report the field as unconvertible only when that warning is an error
    import io
    import warnings

    import numpy as np

    from qfcsim import artifacts

    def lenient_loadtxt(*args, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '1.0' to int16") from exc
        return np.ones(1, dtype=kwargs["dtype"])

    monkeypatch.setattr(artifacts.np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ValueError):
        artifacts.read_table(io.StringIO("1.0\n"), np.dtype([("channel", np.int16)]))


def test_traced_and_exported_names_resolve():
    # perfbench/child.py patches these (owner, attribute) pairs under --trace 1
    child_path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", child_path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for owner_path, attr, _, _ in child.TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            assert attr in vars(owner), f"{owner_path}.{attr}"
        assert callable(getattr(owner, attr)), f"{owner_path}.{attr}"
    for name in qfcsim.__all__:
        assert hasattr(qfcsim, name), name


def test_missing_seed_is_a_config_error(tmp_path, capsys):
    cfg = ExperimentConfig()  # no seed
    path = tmp_path / "noseed.cfg"
    cfg.to_file(path)
    assert main(["g2", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def _assert_no_artifact(out):
    assert not out.exists() or not any(out.iterdir())


def test_bad_config_text_exits_2_and_writes_nothing(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes("seed=1\n# puissance de pompe à 700 mW\n".encode("latin-1"))
    out = tmp_path / "latin1"
    assert main(["g2", "--config", str(not_utf8), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error: cannot read config file ")
    _assert_no_artifact(out)
    # a rate where a period belongs, a power where a time or a bare number
    # belongs, and any suffix on a unitless field
    for name, line in (("rate_period", "rep_period=82MHz"),
                       ("power_window", "coincidence_window=1mW"),
                       ("power_coeff", "eff_coeff=3.6mW"),
                       ("rate_pairs", "mean_pairs=0.06GHz")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"seed=1\nn_pulses=1000\n{line}\n")
        for command in ("sweep", "g2", "tomo"):
            out = tmp_path / f"{name}_{command}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            _assert_one_line_error(capsys, "config error: key ")
            _assert_no_artifact(out)
    stream = tmp_path / "good.csv"
    stream.write_text("# n_pulses=10 seed=1 rep_period_ps=12195.0\n1,0,0.0\n")
    counts = tmp_path / "counts.csv"
    save_records(standard_settings(), [100] * 16, [1.0] * 16, counts)
    for i, extra in enumerate((["--stream", str(stream), "--window", "1mW"],
                               ["--stream", str(stream), "--bin-width", "50MHz"],
                               ["--counts", str(counts), "--bg-rate", "3s"])):
        out = tmp_path / f"flag_{i}"
        assert main(["analyze", *extra, "--out", str(out)]) == 2
        _assert_one_line_error(capsys, "config error: unit suffix ")
        _assert_no_artifact(out)
    # the same quantities in their own units still run
    out = tmp_path / "own_units"
    assert main(["analyze", "--stream", str(stream), "--window", "1000ps",
                 "--bin-width", "0.05ns", "--out", str(out)]) == 0
    assert main(["analyze", "--counts", str(counts), "--bg-rate", "0.2Hz",
                 "--out", str(out)]) == 0
    # bg_rate is no config key: tomo takes its floor from the state's noise
    old = tmp_path / "bg_rate.cfg"
    old.write_text("seed=1\nbg_rate=0.2Hz\n")
    for command in ("sweep", "g2", "tomo"):
        out = tmp_path / f"bg_rate_{command}"
        assert main([command, "--config", str(old), "--out", str(out)]) == 2
        _assert_one_line_error(capsys, "config error: unknown config key 'bg_rate'")
        _assert_no_artifact(out)


def test_cli_import_leaves_scipy_unloaded(tmp_path, g2_cfg_path, tomo_cfg_path):
    # numpy is the only runtime dependency: neither the import nor any
    # command loads scipy (the tests use it only as a reference)
    out = tmp_path / "o"
    commands = [
        ["sweep", "--config", str(g2_cfg_path), "--out", str(out / "sweep")],
        ["g2", "--config", str(g2_cfg_path), "--save-stream", "--out", str(out / "g2")],
        ["tomo", "--config", str(tomo_cfg_path), "--subtract-bg", "--timebin-histogram",
         "--out", str(out / "tomo")],
        ["analyze", "--stream", str(out / "g2" / "events.csv"), "--out", str(out / "an")],
        ["analyze", "--counts", str(out / "tomo" / "tomo_counts.csv"), "--out", str(out / "ac")],
    ]
    script = ("import json, sys\n"
              "from qfcsim.cli import main\n"
              "print('import', 'scipy' in sys.modules)\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    code = main(argv)\n"
              "    print(argv[0], code, 'scipy' in sys.modules)\n")
    src = Path(qfcsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    report = [line for line in proc.stdout.splitlines() if line.endswith(("True", "False"))]
    assert report == ["import False"] + [f"{argv[0]} 0 False" for argv in commands]


def _run_under_2_gb(tmp_path, cfg, command, *flags):
    """Run the CLI ``command`` on ``cfg`` in a child interpreter whose
    address space is limited to 2 GB."""
    path = tmp_path / "limited.cfg"
    cfg.to_file(path)
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from qfcsim.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = Path(qfcsim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", script, command, "--config", str(path), *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_heavy_noise_timebin_run_fits_in_memory(tmp_path):
    # 5.25e6 detected noise photons per herald: one candidate click per
    # photon asked for about 27 GiB; each herald's earliest click alone fits
    cfg = PRESETS["calibrated_tomo"]()
    cfg.noise_coeff, cfg.pump_power, cfg.n_pulses, cfg.n_bootstrap = 1e6, 70.0, 20_000, 0
    out = tmp_path / "out"
    proc = _run_under_2_gb(tmp_path, cfg, "tomo", "--out", str(out), "--timebin-histogram")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "timebin_histogram.csv").read_text().splitlines()
    counts = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(counts) and np.all(np.isfinite(counts)) and counts.sum() > 0


def test_run_beyond_memory_exits_2_with_one_line(tmp_path):
    # the sweep's power grid, 2 mW steps up to 1e12 W, asks for 3.55 PiB;
    # that allocation fails, which is bad input (exit 2), not a traceback
    # (exit 1), and it leaves no artifact
    cfg = PRESETS["calibrated_tomo"]()
    cfg.pump_power = 1e12
    out = tmp_path / "out"
    proc = _run_under_2_gb(tmp_path, cfg, "sweep", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: Unable to allocate "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    _assert_no_artifact(out)


def test_sweep_writes_per_watt_fit_and_refuses_eff_coeff_unit(tmp_path, capsys):
    # eff_coeff is per W and the fit works in watts; a config that still
    # sets eff_coeff_unit, per_W included, names an unknown key: exit 2
    cfg = tmp_path / "per_w.cfg"
    cfg.write_text("eff_coeff=3.6\n")
    out = tmp_path / "per_w"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    fit = _pairs(out / "sweep_fit.txt")
    assert fit["coeff"] == "3.6" and fit["coeff_unit"] == "per_W"
    assert fit["peak_power_w"] == "0.6853891945200943"
    capsys.readouterr()
    for unit in ("per_W", "per_mW"):
        cfg = tmp_path / f"{unit}.cfg"
        cfg.write_text(f"eff_coeff=3.6\neff_coeff_unit={unit}\n")
        out = tmp_path / unit
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        _assert_one_line_error(capsys, "config error: unknown config key 'eff_coeff_unit'")
        _assert_no_artifact(out)


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qfcsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout

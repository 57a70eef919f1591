"""Command-line interface: subcommands, exit codes, and reproducibility.

Commands run in-process through main(argv) for speed; one subprocess
check confirms the installed entry point works at all.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfcsim
from qfcsim.cli import main
from qfcsim.config import (ExperimentConfig, calibrated_g2_config, calibrated_tomo_config,
                           ideal_g2_config)
from qfcsim.counting import CountSummary
from qfcsim.tomography import CountRecord, save_records


@pytest.fixture()
def g2_cfg_path(tmp_path):
    cfg = calibrated_g2_config(seed=14)
    cfg.n_pulses = 120_000
    path = tmp_path / "g2.cfg"
    cfg.to_file(path)
    return path


@pytest.fixture()
def tomo_cfg_path(tmp_path):
    cfg = calibrated_tomo_config(seed=22)
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
    run_text = (out / "g2_summary.txt").read_text()
    an_text = (an / "count_summary.txt").read_text()
    assert CountSummary.from_text(an_text) == CountSummary.from_text(run_text)
    run_vals = dict(l.split("=", 1) for l in run_text.splitlines() if "=" in l)
    an_vals = dict(l.split("=", 1) for l in an_text.splitlines() if "=" in l)
    assert an_vals["g2_zero"] == run_vals["g2_zero"]


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
    # subtraction path produces a different (cleaner) state
    an_sub = tmp_path / "an_sub"
    assert main(["analyze", "--counts", str(out / "tomo_counts.csv"),
                 "--subtract-bg", "--bg-rate", "0.2Hz",
                 "--out", str(an_sub)]) == 0
    sub_report = json.loads((an_sub / "tomography.json").read_text())
    assert sub_report["fidelity"] > report["fidelity"]


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
    no_seed_header = tmp_path / "header.csv"
    no_seed_header.write_text("# n_pulses=10 rep_period_ps=12195.0\n1,0,0.0\n")
    assert main(["analyze", "--stream", str(no_seed_header), "--out", str(tmp_path / "o")]) == 2
    short_line = tmp_path / "line.csv"
    short_line.write_text("# n_pulses=10 seed=1 rep_period_ps=12195.0\n1,0\n")
    assert main(["analyze", "--stream", str(short_line), "--out", str(tmp_path / "o")]) == 2
    bad_counts = tmp_path / "counts.csv"
    bad_counts.write_text("0,0,0,0,12\n")
    assert main(["analyze", "--counts", str(bad_counts), "--out", str(tmp_path / "o")]) == 2
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
    from qfcsim.tomography import standard_settings
    counts = tmp_path / "good_counts.csv"
    save_records([CountRecord(s, 100, 1.0) for s in standard_settings()], counts)
    assert main(["analyze", "--counts", str(counts), "--subtract-bg", "--bg-rate=-1Hz",
                 "--out", str(tmp_path / "o")]) == 2


def test_exit_code_on_usage_errors(tmp_path, g2_cfg_path, capsys):
    # argparse rejects unknown flags with status 2
    assert main(["g2", "--config", str(g2_cfg_path), "--frobnicate"]) == 2
    assert main(["warp", "--config", str(g2_cfg_path)]) == 2
    # analyze requires exactly one input
    assert main(["analyze", "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", "--stream", "a", "--counts", "b",
                 "--out", str(tmp_path / "o")]) == 2


def test_exit_code_on_numerical_failure(tmp_path, capsys):
    from qfcsim.tomography import standard_settings
    zero = [CountRecord(s, 0, 1.0) for s in standard_settings()]
    path = tmp_path / "zero.csv"
    save_records(zero, path)
    assert main(["analyze", "--counts", str(path),
                 "--out", str(tmp_path / "o")]) == 3


def test_g2_on_empty_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    ExperimentConfig(n_pulses=50, seed=1).to_file(path)
    out = tmp_path / "o"
    assert main(["g2", "--config", str(path), "--out", str(out)]) == 0
    assert "insufficient=True" in (out / "g2_summary.txt").read_text()


def test_g2_and_analyze_stream_share_sufficiency_rule(tmp_path, capsys):
    # 60 triggers: too few for g2(0) in both the run and the re-analysis
    cfg = ideal_g2_config(seed=3)
    cfg.n_pulses = 60
    path = tmp_path / "short.cfg"
    cfg.to_file(path)
    run, an = tmp_path / "run", tmp_path / "an"
    assert main(["g2", "--config", str(path), "--out", str(run), "--save-stream"]) == 0
    assert main(["analyze", "--stream", str(run / "events.csv"), "--out", str(an)]) == 0
    run_vals = dict(l.split("=", 1) for l in (run / "g2_summary.txt").read_text().splitlines())
    an_vals = dict(l.split("=", 1) for l in (an / "count_summary.txt").read_text().splitlines())
    assert run_vals["n_trigger"] == an_vals["n_trigger"] == "60"
    assert run_vals["insufficient"] == "True"
    for key in ("g2_zero", "std_error"):
        assert run_vals[key] == an_vals[key] == "nan"


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported inside the functions that call it, so the commands
    # that never fit or exponentiate do not pay for its import
    src = Path(qfcsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qfcsim.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qfcsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout

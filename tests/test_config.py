"""Config parsing, serialization, and the frozen calibration constants."""

import math
from pathlib import Path

import pytest

from qfcsim.config import (
    CHAIN_EFFICIENCY_CAL,
    ConfigError,
    DEPHASING_CAL,
    ExperimentConfig,
    NOISE_COEFF_G2_CAL,
    NOISE_COEFF_TOMO_CAL,
    PRESETS,
    WERNER_WEIGHT_CAL,
    parse_scalar,
)


def test_parse_scalar_units():
    assert parse_scalar("700mW") == pytest.approx(0.7)
    assert parse_scalar("1ns") == pytest.approx(1e-9)
    assert parse_scalar("50ps") == pytest.approx(50e-12)
    assert parse_scalar("150kHz") == pytest.approx(150e3)
    assert parse_scalar("0.62") == 0.62
    assert parse_scalar("  2.5us ") == pytest.approx(2.5e-6)
    assert parse_scalar("1e-3") == 1e-3


def test_parse_scalar_errors():
    for bad in ("1.2.3", "fast", "3 ns", "1kg", ""):
        with pytest.raises(ConfigError):
            parse_scalar(bad)


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.seed is None
    with pytest.raises(ConfigError):
        cfg.require_seed()


def test_text_roundtrip_is_lossless():
    cfg = ExperimentConfig(seed=5, pump_power=0.123456789012345,
                           noise_coeff=NOISE_COEFF_G2_CAL)
    back = ExperimentConfig.from_text(cfg.to_text())
    assert back == cfg


def test_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=17, source_kind="spdc_thermal", mean_pairs=0.11)
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "absent.cfg")


def test_from_text_accepts_units_and_comments():
    text = """
    # a commented line
    pump_power=700mW
    coincidence_window=1ns
    pump_linewidth=150kHz

    seed=3
    interface=off
    """
    cfg = ExperimentConfig.from_text(text)
    assert cfg.pump_power == pytest.approx(0.7)
    assert cfg.coincidence_window == pytest.approx(1e-9)
    assert cfg.pump_linewidth == pytest.approx(150e3)
    assert cfg.seed == 3
    assert cfg.interface is False


def test_from_text_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("not a key value line\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("unknown_knob=1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("seed=1\nseed=2\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("n_pulses=many\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("interface=maybe\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("pump_power=-2\n")


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(source_kind="laser")
    with pytest.raises(ConfigError):
        ExperimentConfig(eff_peak=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(eff_coeff_unit="per_kW")
    with pytest.raises(ConfigError):
        ExperimentConfig(det2_efficiency=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-3)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_pulses=0)


_DETECTOR_FIELDS = [f"det{i}_{kind}" for i in (1, 2, 3) for kind in ("efficiency", "dark")]


@pytest.mark.parametrize("field,value", [
    *[(name, bad) for name in _DETECTOR_FIELDS for bad in (-0.01, 1.01)],
    ("mean_pairs", -0.1),
    ("pair_truncation", 0),
    ("noise_coeff", -0.1),
    ("pump_linewidth", -1.0),
    ("mzi_delay", 0.0),
    ("mzi_delay", -1e-9),
])
def test_validate_is_the_only_range_check(field, value):
    # the physics reads these values straight from the config, so the
    # config must reject them itself
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


def test_chain_efficiency_matches_frozen_constant():
    cfg = ExperimentConfig()
    assert abs(cfg.chain_efficiency() - CHAIN_EFFICIENCY_CAL) < 1e-15
    assert abs(CHAIN_EFFICIENCY_CAL - 0.38429338843256744) < 1e-16
    assert abs(DEPHASING_CAL - 0.9990579661966258) < 1e-16
    assert abs(WERNER_WEIGHT_CAL - 14.0 / 15.0) < 1e-16


def test_tomo_noise_constant_hits_target_fidelity():
    # re-derive: white-noise weight w = nu/(s + nu) must drag the source
    # fidelity to exactly 0.75
    s = CHAIN_EFFICIENCY_CAL
    f_source = (1.0 + WERNER_WEIGHT_CAL) / 4.0 + WERNER_WEIGHT_CAL * DEPHASING_CAL / 2.0
    nu = NOISE_COEFF_TOMO_CAL * 0.7
    w = nu / (s + nu)
    f_out = (1.0 - w) * f_source + w * 0.25
    assert abs(f_out - 0.75) < 1e-12
    assert abs(NOISE_COEFF_TOMO_CAL - 0.21911353214504486) < 1e-15


def test_presets_validate_and_are_distinct():
    seen = set()
    for name, factory in PRESETS.items():
        cfg = factory()
        cfg.validate()
        assert cfg.seed is not None
        key = (cfg.source_kind, cfg.seed, cfg.n_pulses, cfg.noise_coeff)
        assert key not in seen
        seen.add(key)


def test_config_files_match_presets():
    # configs/ holds exactly the presets, each as to_text writes it
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    assert sorted(p.stem for p in config_dir.glob("*.cfg")) == sorted(PRESETS)
    for name, factory in PRESETS.items():
        assert (config_dir / f"{name}.cfg").read_text() == factory().to_text()


def test_noise_mean_and_helpers():
    cfg = ExperimentConfig(noise_coeff=0.2, pump_power=0.5)
    assert cfg.noise_mean() == pytest.approx(0.1)
    model = cfg.efficiency_model()
    assert model.peak == cfg.eff_peak


def test_seed_override_roundtrip():
    cfg = ExperimentConfig(seed=0)
    assert cfg.require_seed() == 0
    text = cfg.to_text()
    assert "seed=0" in text
    assert ExperimentConfig.from_text(text).seed == 0

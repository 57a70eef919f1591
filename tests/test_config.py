"""Config parsing, serialization, and the shipped preset files."""

import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qfcsim.config
from qfcsim.config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    SOURCE_KINDS,
    parse_scalar,
)
from qfcsim.conversion import pump_dephasing_factor

#: every field typed float, whose non-finite values validate refuses
FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
INT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "int"]


def test_parse_scalar_units():
    assert parse_scalar("700mW", "W") == pytest.approx(0.7)
    assert parse_scalar("1ns", "s") == pytest.approx(1e-9)
    assert parse_scalar("50ps", "s") == pytest.approx(50e-12)
    assert parse_scalar("150kHz", "Hz") == pytest.approx(150e3)
    assert parse_scalar("0.62") == 0.62
    assert parse_scalar("  2.5us ", "s") == pytest.approx(2.5e-6)
    assert parse_scalar("1e-3") == 1e-3
    # a bare number is read in the base unit
    assert parse_scalar("0.7", "W") == 0.7
    # a suffix of another dimension, or any suffix on a unitless value
    for text, unit in (("82MHz", "s"), ("1mW", "s"), ("3s", "Hz"), ("1ns", "W"),
                       ("3.6mW", ""), ("0.06GHz", ""), ("1s", "")):
        with pytest.raises(ConfigError, match="unit suffix"):
            parse_scalar(text, unit)


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
                           noise_coeff=PRESETS["calibrated_g2"]().noise_coeff)
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
    # the efficiency law's fields carry their own range rules
    for name, bad in (("eff_peak", 1.5), ("eff_coeff", 0.0)):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            ExperimentConfig(**{name: bad})
    with pytest.raises(ConfigError):
        ExperimentConfig(det2_efficiency=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-3)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_pulses=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_fields_are_refused(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        ExperimentConfig(**{name: value})


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


#: the range rule of every ruled field, written out here rather than read
#: from the declarations, so a rule that changes by accident fails below
RANGE_RULES = {
    "rep_period": "> 0", "mzi_delay": "> 0", "jitter_sigma": ">= 0",
    "mean_pairs": ">= 0", "pair_truncation": "in [1, 10000]", "werner_weight": "in [0, 1]",
    "pump_power": ">= 0", "eff_peak": "in [0, 1]", "eff_coeff": "> 0",
    "extra_transmittance": "in [0, 1]", "noise_coeff": ">= 0",
    "pump_linewidth": ">= 0", **{name: "in [0, 1]" for name in _DETECTOR_FIELDS},
    "coincidence_window": "> 0", "postselect_window": "> 0", "n_per_setting": "> 0",
    "duration_per_setting": "> 0", "n_bootstrap": ">= 0",
    "n_pulses": ">= 1",
}

#: the fields without a range rule; validate checks these across fields
UNRULED = ("source_kind", "mzi_phase", "interface", "seed")

#: the base unit of every float field that has one; the others are bare numbers
UNITS = {"rep_period": "s", "mzi_delay": "s", "jitter_sigma": "s",
         "coincidence_window": "s", "postselect_window": "s",
         "duration_per_setting": "s", "pump_power": "W", "pump_linewidth": "Hz"}


def _rule_edges(name, rule):
    """The edge values of a rule that it accepts, and the nearest that it refuses."""
    if rule.startswith("in ["):
        low, high = (int(edge) for edge in rule[4:-1].split(","))
        if name in INT_FIELDS:
            return [low, high], [low - 1, high + 1]
        return [float(low), float(high)], [math.nextafter(float(low), -math.inf),
                                           math.nextafter(float(high), math.inf)]
    if rule == "> 0":
        return [], [0.0]
    low = int(rule[-1])
    if name in INT_FIELDS:
        return [low], [low - 1]
    return [float(low)], [math.nextafter(float(low), -math.inf)]


_EDGES = [(name, value, ok) for name, rule in RANGE_RULES.items()
          for ok, values in zip((True, False), _rule_edges(name, rule)) for value in values]


def test_range_rules_match_the_table():
    # the fields that carry a rule are the table's, each with the table's
    # rule; a new field fails here until it is listed, with a rule or unruled
    declared = {f.name: f.metadata.get("rule") for f in fields(ExperimentConfig)}
    assert declared == {**RANGE_RULES, **dict.fromkeys(UNRULED)}


@pytest.mark.parametrize("field,value,ok", _EDGES)
def test_range_rule_edges(field, value, ok):
    if ok:
        assert getattr(ExperimentConfig(**{field: value}), field) == value
    else:
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            ExperimentConfig(**{field: value})


def _valid_value(name, rule):
    """A strategy for the values of a ruled field that its rule accepts."""
    if name in INT_FIELDS:
        accepted = _rule_edges(name, rule)[0]
        # an open rule accepts one edge, its lower one
        return st.integers(accepted[0], accepted[1] if len(accepted) == 2 else 2**40)
    return st.floats(0.0, 1.0 if rule == "in [0, 1]" else 1e300, exclude_min=rule == "> 0")


@st.composite
def _valid_configs(draw):
    kwargs = {name: draw(_valid_value(name, rule)) for name, rule in RANGE_RULES.items()}
    # the +-delay slots stay inside one pulse
    kwargs["rep_period"] = draw(st.floats(1e-300, 1e300))
    kwargs["mzi_delay"] = draw(st.floats(0.0, kwargs["rep_period"] / 2, exclude_min=True,
                                         exclude_max=True))
    return ExperimentConfig(
        **kwargs, source_kind=draw(st.sampled_from(SOURCE_KINDS)),
        mzi_phase=draw(st.floats(-1e300, 1e300)), interface=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63)))


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(_valid_configs())
def test_text_roundtrip_of_random_configs(cfg):
    text = cfg.to_text()
    assert ExperimentConfig.from_text(text) == cfg
    lines = dict(line.split("=", 1) for line in text.splitlines())
    assert set(lines) == {f.name for f in fields(cfg)}
    for f in fields(cfg):
        if f.type == "float":
            assert lines[f.name] == repr(getattr(cfg, f.name)) + UNITS.get(f.name, "")


def test_mzi_delay_must_stay_below_half_the_period():
    # from rep_period / 2 the +-delay slots land in the neighbouring pulse;
    # between rep_period / 4 and that limit only the noise gates overlap
    period = ExperimentConfig().rep_period
    for delay in (period / 2, period):
        with pytest.raises(ConfigError, match="rep_period / 2"):
            ExperimentConfig(mzi_delay=delay)
    with pytest.raises(ConfigError, match="rep_period / 2"):
        ExperimentConfig(rep_period=2e-9)
    for delay in (period / 4, 4e-9, math.nextafter(period / 2, 0.0)):
        assert ExperimentConfig(mzi_delay=delay).mzi_delay == delay
    assert ExperimentConfig(rep_period=2.5e-9).mzi_delay == 1e-9


def _chain(cfg):
    """Chain efficiency, pump dephasing over the interferometer delay, and
    source Werner weight of a config."""
    return (cfg.chain_efficiency(), pump_dephasing_factor(cfg.pump_linewidth, cfg.mzi_delay),
            cfg.werner_weight)


def test_chain_efficiency_matches_frozen_constant():
    s, d, p = _chain(ExperimentConfig())
    assert abs(s - 0.38429338843256744) < 1e-16
    assert abs(d - 0.9990579661966258) < 1e-16
    assert abs(p - 14.0 / 15.0) < 1e-16
    # the calibrated tomography preset keeps the default source and chain
    assert _chain(PRESETS["calibrated_tomo"]()) == (s, d, p)


def test_tomo_noise_constant_hits_target_fidelity():
    # re-derive: a white-noise admixture of weight w = nu/(s + nu) moves the
    # source fidelity F_s to (1 - w) F_s + w/4, which must land on 0.75, so
    # nu = s (F_s - 0.75) / (0.75 - 0.25) at the preset's pump power
    cfg = PRESETS["calibrated_tomo"]()
    s, d, p = _chain(cfg)
    f_source = (1.0 + p) / 4.0 + p * d / 2.0
    assert cfg.noise_coeff == s * (f_source - 0.75) / (0.75 - 0.25) / cfg.pump_power
    nu = cfg.noise_mean()
    w = nu / (s + nu)
    f_out = (1.0 - w) * f_source + w * 0.25
    assert abs(f_out - 0.75) < 1e-12
    assert abs(cfg.noise_coeff - 0.21911353214504486) < 1e-15


def test_presets_validate_and_are_distinct():
    seen = set()
    for name, preset in PRESETS.items():
        cfg = preset()
        cfg.validate()
        assert cfg.seed is not None
        key = (cfg.source_kind, cfg.seed, cfg.n_pulses, cfg.noise_coeff)
        assert key not in seen
        seen.add(key)


def test_config_files_match_presets():
    # the preset directory holds exactly the presets, each, below its
    # comment lines, as to_text writes it
    preset_dir = Path(qfcsim.config.__file__).with_name("presets")
    assert sorted(p.stem for p in preset_dir.glob("*.cfg")) == sorted(PRESETS)
    for name, preset in PRESETS.items():
        lines = (preset_dir / f"{name}.cfg").read_text(encoding="utf-8").splitlines(keepends=True)
        assert "".join(line for line in lines if not line.startswith("#")) == preset().to_text()
        assert preset(seed=987).seed == 987


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

"""Experiment configuration: one flat dataclass, one flat file format.

Config files are line-oriented ``key=value`` text.  Values may carry a unit
suffix (``pump_power=700mW``, ``coincidence_window=1ns``); everything is
stored internally in SI base units.  Writing uses ``repr`` so a config
round-trips through its file losslessly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional

from .conversion import EfficiencyModel, conversion_efficiency


class ConfigError(ValueError):
    """Bad configuration contents (unknown key, bad value, missing seed)."""


_UNIT_FACTORS = {
    "": 1.0,
    "W": 1.0,
    "mW": 1e-3,
    "uW": 1e-6,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "ps": 1e-12,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
}

# Base unit suffix written next to each field when serializing; parse accepts
# any compatible prefix from the table above.
_FIELD_UNITS = {
    "rep_period": "s",
    "mzi_delay": "s",
    "jitter_sigma": "s",
    "coincidence_window": "s",
    "postselect_window": "s",
    "duration_per_setting": "s",
    "pump_power": "W",
    "pump_linewidth": "Hz",
    "bg_rate": "Hz",
}

_SCALAR_RE = re.compile(r"^([-+0-9.eE]+)([a-zA-Z]*)$")

SOURCE_KINDS = ("spdc", "spdc_thermal", "single_photon", "coherent", "thermal")


def parse_scalar(text: str) -> float:
    """Parse a number with an optional unit suffix into SI base units."""
    m = _SCALAR_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse value {text!r}")
    digits, suffix = m.groups()
    if suffix not in _UNIT_FACTORS:
        raise ConfigError(f"unknown unit suffix {suffix!r} in {text!r}")
    try:
        value = float(digits) * _UNIT_FACTORS[suffix]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {digits!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"value {text!r} is not finite")
    return value


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


@dataclass
class ExperimentConfig:
    """All knobs for one simulated run.

    Timing is in seconds, powers in watts, rates in Hz.  ``seed`` may stay
    None for purely analytic work but is mandatory before any Monte Carlo
    run.  The channel 1 detector is the herald/trigger, 2 and 3 sit after the
    balanced splitter (2 doubles as the single decode detector for the
    time-bin interferometer).
    """

    # timing
    rep_period: float = 1.0 / 82e6
    mzi_delay: float = 1e-9
    jitter_sigma: float = 60e-12
    # source
    source_kind: str = "spdc"
    mean_pairs: float = 0.06
    pair_truncation: int = 4
    werner_weight: float = 14.0 / 15.0
    # pump and conversion chain
    pump_power: float = 0.7
    eff_peak: float = 0.62
    eff_coeff: float = 3.6
    eff_coeff_unit: str = "per_W"
    extra_transmittance: float = 0.62
    noise_coeff: float = 0.0
    pump_linewidth: float = 150e3
    # detectors
    det1_efficiency: float = 0.6
    det1_dark: float = 1e-5
    det2_efficiency: float = 0.15
    det2_dark: float = 1e-4
    det3_efficiency: float = 0.15
    det3_dark: float = 1e-4
    # analysis windows
    coincidence_window: float = 1e-9
    postselect_window: float = 200e-12
    # interferometer
    mzi_phase: float = 0.0
    # tomography
    interface: bool = True
    n_per_setting: float = 1400.0
    duration_per_setting: float = 500.0
    bg_rate: float = 0.2
    n_bootstrap: int = 32
    # run
    n_pulses: int = 1_000_000
    seed: Optional[int] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            # NaN passes every range check below
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source_kind {self.source_kind!r}")
        if self.rep_period <= 0:
            raise ConfigError("rep_period must be > 0")
        if self.mzi_delay <= 0:
            raise ConfigError("mzi_delay must be > 0")
        # from rep_period / 4 the noise gates of neighbouring pulses overlap,
        # which is allowed; from rep_period / 2 the +-delay slots themselves
        # land in a neighbouring pulse
        if self.mzi_delay >= self.rep_period / 2:
            raise ConfigError("mzi_delay must be < rep_period / 2")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")
        if self.mean_pairs < 0:
            raise ConfigError("mean_pairs must be >= 0")
        if self.pair_truncation < 1:
            raise ConfigError("pair_truncation must be >= 1")
        if not 0.0 <= self.werner_weight <= 1.0:
            raise ConfigError("werner_weight must lie in [0, 1]")
        if self.pump_power < 0:
            raise ConfigError("pump_power must be >= 0")
        try:
            self.efficiency_model()
        except ValueError as exc:
            raise ConfigError(f"eff_peak, eff_coeff or eff_coeff_unit: {exc}") from exc
        if not 0.0 <= self.extra_transmittance <= 1.0:
            raise ConfigError("extra_transmittance must lie in [0, 1]")
        if self.noise_coeff < 0:
            raise ConfigError("noise_coeff must be >= 0")
        if self.pump_linewidth < 0:
            raise ConfigError("pump_linewidth must be >= 0")
        for name in ("det1_efficiency", "det1_dark", "det2_efficiency",
                     "det2_dark", "det3_efficiency", "det3_dark"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {val}")
        if self.coincidence_window <= 0:
            raise ConfigError("coincidence_window must be > 0")
        if self.postselect_window <= 0:
            raise ConfigError("postselect_window must be > 0")
        if self.n_per_setting <= 0:
            raise ConfigError("n_per_setting must be > 0")
        if self.duration_per_setting <= 0:
            raise ConfigError("duration_per_setting must be > 0")
        if self.bg_rate < 0:
            raise ConfigError("bg_rate must be >= 0")
        if self.n_bootstrap < 0:
            raise ConfigError("n_bootstrap must be >= 0")
        if self.n_pulses < 1:
            raise ConfigError("n_pulses must be >= 1")
        if self.seed is not None and (int(self.seed) != self.seed or self.seed < 0):
            raise ConfigError("seed must be a nonnegative integer")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is required for simulation runs")
        return int(self.seed)

    # -- derived physics helpers -------------------------------------------

    def efficiency_model(self) -> EfficiencyModel:
        return EfficiencyModel(self.eff_peak, self.eff_coeff, self.eff_coeff_unit)

    def chain_efficiency(self) -> float:
        """Conversion efficiency at the configured pump times the residual
        transmittance of the converted arm."""
        return conversion_efficiency(self.pump_power, self.efficiency_model()) \
            * self.extra_transmittance

    def noise_mean(self) -> float:
        """Mean pump-induced noise photons per pulse in the converted band."""
        return self.noise_coeff * self.pump_power

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                rendered = "on" if value else "off"
            elif isinstance(value, float):
                rendered = repr(value) + _FIELD_UNITS.get(f.name, "")
            else:
                rendered = str(value)
            lines.append(f"{f.name}={rendered}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = val

        field_map = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, val in values.items():
            if key not in field_map:
                raise ConfigError(f"unknown config key {key!r}")
            ftype = field_map[key].type
            if ftype in ("bool",):
                kwargs[key] = _parse_bool(val)
            elif ftype in ("int", "Optional[int]"):
                try:
                    kwargs[key] = int(val)
                except ValueError as exc:
                    raise ConfigError(f"key {key!r}: expected integer, got {val!r}") from exc
            elif ftype in ("str",):
                kwargs[key] = val
            else:
                kwargs[key] = parse_scalar(val)
        return cls(**kwargs)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_text(text)


# ---------------------------------------------------------------------------
# Frozen calibration constants for the preset configs: noise coefficients
# calibrated so the presets land on the benchmark observables.
# ---------------------------------------------------------------------------

#: noise photons per pulse per watt for the calibrated tomography preset; its
#: white-noise admixture drags the converted fidelity of the default source
#: and chain to 0.75 (oracle re-derived in the tests)
NOISE_COEFF_TOMO_CAL = 0.21911353214504486

#: noise photons per pulse per watt for the calibrated intensity-correlation
#: preset; root-found against the exact click-probability enumeration so the
#: heralded g2(0) lands on 0.17 (oracle re-derived in the tests)
NOISE_COEFF_G2_CAL = 0.02917789025203381


def ideal_g2_config(seed: int = 11) -> ExperimentConfig:
    """Lossless heralded single-photon run: g2(0) is exactly zero."""
    return ExperimentConfig(
        source_kind="single_photon",
        mean_pairs=1.0,
        pump_power=(math.pi / 2.0) ** 2 / 3.6,
        eff_peak=1.0,
        extra_transmittance=1.0,
        noise_coeff=0.0,
        pump_linewidth=0.0,
        det1_efficiency=1.0, det1_dark=0.0,
        det2_efficiency=0.5, det2_dark=0.0,
        det3_efficiency=0.5, det3_dark=0.0,
        n_pulses=10_000_000,
        seed=seed,
    )


def coherent_g2_config(seed: int = 12) -> ExperimentConfig:
    """Attenuated laser in place of the heralded source: g2 = 1."""
    return ExperimentConfig(
        source_kind="coherent",
        mean_pairs=0.08,
        det2_efficiency=0.5, det2_dark=1e-4,
        det3_efficiency=0.5, det3_dark=1e-4,
        noise_coeff=0.0,
        n_pulses=2_000_000,
        seed=seed,
    )


def thermal_g2_config(seed: int = 13) -> ExperimentConfig:
    """Single-mode thermal light: g2 = 2 (minus a small saturation bias)."""
    return ExperimentConfig(
        source_kind="thermal",
        mean_pairs=0.05,
        det2_efficiency=0.5, det2_dark=0.0,
        det3_efficiency=0.5, det3_dark=0.0,
        noise_coeff=0.0,
        n_pulses=4_000_000,
        seed=seed,
    )


def calibrated_g2_config(seed: int = 14) -> ExperimentConfig:
    """Heralded run with the calibrated conversion chain and pump noise."""
    return ExperimentConfig(
        source_kind="spdc",
        mean_pairs=0.06,
        det1_efficiency=0.6, det1_dark=1e-5,
        det2_efficiency=0.25, det2_dark=1e-4,
        det3_efficiency=0.25, det3_dark=1e-4,
        noise_coeff=NOISE_COEFF_G2_CAL,
        n_pulses=20_000_000,
        seed=seed,
    )


def ideal_tomo_config(seed: int = 21) -> ExperimentConfig:
    """Perfect pair source through a lossless, noiseless, quiet-pump chain."""
    return ExperimentConfig(
        werner_weight=1.0,
        pump_power=(math.pi / 2.0) ** 2 / 3.6,
        eff_peak=1.0,
        extra_transmittance=1.0,
        noise_coeff=0.0,
        pump_linewidth=0.0,
        n_per_setting=100_000.0,
        duration_per_setting=100.0,
        n_bootstrap=16,
        seed=seed,
    )


def calibrated_tomo_config(seed: int = 22) -> ExperimentConfig:
    """Calibrated entanglement-conversion run.

    The noise coefficient pins the converted fidelity at 0.75, and the
    setting duration is chosen so the flat in-state noise shows up at the
    configured 0.2 Hz background rate (28000 * nu / (4 (s + nu)) = 1997
    counts over 10000 s per setting).
    """
    return ExperimentConfig(
        noise_coeff=NOISE_COEFF_TOMO_CAL,
        n_per_setting=28_000.0,
        duration_per_setting=10_000.0,
        bg_rate=0.2,
        n_bootstrap=32,
        seed=seed,
    )


def source_only_tomo_config(seed: int = 23) -> ExperimentConfig:
    """Tomography of the pair source itself, skipping the interface."""
    cfg = calibrated_tomo_config(seed=seed)
    cfg.interface = False
    cfg.n_per_setting = 20_000.0
    cfg.duration_per_setting = 500.0
    return cfg


PRESETS = {
    "ideal_g2": ideal_g2_config,
    "coherent_g2": coherent_g2_config,
    "thermal_g2": thermal_g2_config,
    "calibrated_g2": calibrated_g2_config,
    "ideal_tomo": ideal_tomo_config,
    "calibrated_tomo": calibrated_tomo_config,
    "source_only_tomo": source_only_tomo_config,
}

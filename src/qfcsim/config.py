"""Experiment configuration: one flat dataclass, one flat file format.

Config files are line-oriented ``key=value`` text.  Each field of
``ExperimentConfig`` declares its base unit and range rule in its own line
(``_field``); parsing, writing and ``validate`` read those declarations.  A
value may carry a unit suffix of its field's dimension
(``pump_power=700mW``, ``coincidence_window=1ns``) and is stored in the SI
base unit; a unitless field takes a bare number.  Writing uses ``repr`` so a
config round-trips through its file losslessly.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .conversion import EfficiencyModel, conversion_efficiency


class ConfigError(ValueError):
    """Bad configuration contents (unknown key, bad value, missing seed)."""


# the unit suffixes each base unit accepts; a bare number is read in the
# base unit, and a unitless field ("") takes no suffix at all
_UNIT_FACTORS = {
    "W": {"W": 1.0, "mW": 1e-3, "uW": 1e-6},
    "s": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "Hz": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
}

# the range rules a field may declare
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [1, 10000]": lambda v: 1 <= v <= 10_000,
}

_SCALAR_RE = re.compile(r"^([-+0-9.eE]+)([a-zA-Z]*)$")

SOURCE_KINDS = ("spdc", "spdc_thermal", "single_photon", "coherent", "thermal")


def parse_scalar(text: str, unit: str = "") -> float:
    """Parse a number with an optional suffix of base unit ``unit`` ("s", "W",
    "Hz", or "" for none) into that base unit."""
    m = _SCALAR_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse value {text!r}")
    digits, suffix = m.groups()
    factors = _UNIT_FACTORS.get(unit, {})
    if suffix and suffix not in factors:
        expected = f"a unit of {unit}" if unit else "a bare number"
        raise ConfigError(f"unit suffix {suffix!r} in {text!r}: expected {expected}")
    try:
        value = float(digits) * factors.get(suffix, 1.0)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {digits!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"value {text!r} is not finite")
    return value


def check_range(name: str, value, rule: str) -> None:
    """Refuse ``value`` unless it keeps ``rule``, one of the keys of ``_RULES``."""
    if not _RULES[rule](value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def _field(default, unit: str, rule: str):
    """A config field with its base unit ("" for a bare number) and range rule."""
    return field(default=default, metadata={"unit": unit, "rule": rule})


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

    Each ranged field declares its base unit and range rule with ``_field``
    in its own line: times are in seconds, the pump power in watts, the
    linewidth in Hz, and every other field is a bare number.
    ``seed`` may stay None for purely analytic work but is mandatory before
    any Monte Carlo run.  The channel 1 detector is the herald/trigger, 2
    and 3 sit after the balanced splitter (2 doubles as the single decode
    detector for the time-bin interferometer).
    """

    # timing
    rep_period: float = _field(1.0 / 82e6, "s", "> 0")
    mzi_delay: float = _field(1e-9, "s", "> 0")
    jitter_sigma: float = _field(60e-12, "s", ">= 0")
    # source
    source_kind: str = "spdc"
    mean_pairs: float = _field(0.06, "", ">= 0")
    # 10^4 pair numbers are 80 kB per weight array, and their thermal tail
    # falls below rounding (1e-16) for up to about 270 mean pairs per pulse
    pair_truncation: int = _field(4, "", "in [1, 10000]")
    werner_weight: float = _field(14.0 / 15.0, "", "in [0, 1]")
    # pump and conversion chain
    pump_power: float = _field(0.7, "W", ">= 0")
    eff_peak: float = _field(0.62, "", "in [0, 1]")
    eff_coeff: float = _field(3.6, "", "> 0")  # per W
    extra_transmittance: float = _field(0.62, "", "in [0, 1]")
    noise_coeff: float = _field(0.0, "", ">= 0")
    pump_linewidth: float = _field(150e3, "Hz", ">= 0")
    # detectors
    det1_efficiency: float = _field(0.6, "", "in [0, 1]")
    det1_dark: float = _field(1e-5, "", "in [0, 1]")
    det2_efficiency: float = _field(0.15, "", "in [0, 1]")
    det2_dark: float = _field(1e-4, "", "in [0, 1]")
    det3_efficiency: float = _field(0.15, "", "in [0, 1]")
    det3_dark: float = _field(1e-4, "", "in [0, 1]")
    # analysis windows
    coincidence_window: float = _field(1e-9, "s", "> 0")
    postselect_window: float = _field(200e-12, "s", "> 0")
    # interferometer
    mzi_phase: float = 0.0
    # tomography
    interface: bool = True
    n_per_setting: float = _field(1400.0, "", "> 0")
    duration_per_setting: float = _field(500.0, "s", "> 0")
    n_bootstrap: int = _field(32, "", ">= 0")
    # run
    n_pulses: int = _field(1_000_000, "", ">= 1")
    seed: Optional[int] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # inf keeps the rules "> 0" and ">= 0", and not every float has a rule
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if "rule" in f.metadata:
                check_range(f.name, value, f.metadata["rule"])
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source_kind {self.source_kind!r}")
        # from rep_period / 4 the noise gates of neighbouring pulses overlap,
        # which is allowed; from rep_period / 2 the +-delay slots themselves
        # land in a neighbouring pulse
        if self.mzi_delay >= self.rep_period / 2:
            raise ConfigError("mzi_delay must be < rep_period / 2")
        if self.seed is not None and (int(self.seed) != self.seed or self.seed < 0):
            raise ConfigError("seed must be a nonnegative integer")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is required for simulation runs")
        return int(self.seed)

    # -- derived physics helpers -------------------------------------------

    def efficiency_model(self) -> EfficiencyModel:
        return EfficiencyModel(self.eff_peak, self.eff_coeff)

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
                rendered = repr(value) + f.metadata.get("unit", "")
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
            f = field_map[key]
            try:
                if f.type == "bool":
                    kwargs[key] = _parse_bool(val)
                elif f.type in ("int", "Optional[int]"):
                    kwargs[key] = int(val)
                elif f.type == "str":
                    kwargs[key] = val
                else:
                    kwargs[key] = parse_scalar(val, f.metadata.get("unit", ""))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
        return cls(**kwargs)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_text(text)


def load_config(path, seed: Optional[int] = None) -> ExperimentConfig:
    """A fresh config read from the file ``path``, at ``seed`` if given and
    otherwise at the file's own seed."""
    config = ExperimentConfig.from_file(path)
    if seed is not None:
        config.seed = seed
        config.validate()
    return config


#: the shipped operating points, one ``presets/<name>.cfg`` file each; the
#: comment lines at the top of each file say where its values come from
PRESETS = {path.stem: functools.partial(load_config, path)
           for path in sorted(Path(__file__).with_name("presets").glob("*.cfg"))}

"""Scenario configuration: a flat key-value file format plus validation.

The format is deliberately plain so a scenario can be written by hand
and diffed: one ``section.key = value`` per line, ``#`` comments, no
nesting.  Sections ``node<k>`` and ``interferer<k>`` may repeat with
different ``<k>`` tokens to declare several entities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .delays import DelayParams
from .energy import DevicePowerProfile
from .frames import DEFAULT_FAMILY, SensorId, make_sensor_id
from .mac import DEFAULT_BEACON_S, DEFAULT_GUARD_S
from .monitor import AlertRule
from .traces import ConstantTrace, TemperatureTrace, finite_float, parse_trace

TDMA = "tdma"
ALOHA = "aloha"


class ConfigError(ValueError):
    """Base for configuration problems."""


class ParseError(ConfigError):
    """Malformed config text; message carries file and line context."""


class ValidationError(ConfigError):
    """Well-formed config with inconsistent values; names the field."""


@dataclass(frozen=True)
class NodeSpec:
    name: str
    serial: int
    trace: TemperatureTrace = field(default_factory=lambda: ConstantTrace(37.0))
    distance_m: float = 10.0

    def sensor_id(self, family_code: int = DEFAULT_FAMILY) -> SensorId:
        return make_sensor_id(family_code, self.serial)


@dataclass(frozen=True)
class InterfererSpec:
    """A foreign transmitter that periodically occupies the channel."""

    name: str
    distance_m: float = 10.0
    period_s: float = 1.0
    start_s: float = 0.0
    bits: int = 256


@dataclass(frozen=True)
class ScenarioConfig:
    nodes: tuple[NodeSpec, ...]
    duration_s: float = 60.0
    seed: int = 1
    mac_mode: str = TDMA
    sample_period_s: float = 1.0
    noise_sigma_c: float = 0.1
    range_m: float = 100.0
    family_code: int = DEFAULT_FAMILY
    guard_s: float = DEFAULT_GUARD_S
    beacon_s: float = DEFAULT_BEACON_S
    interferers: tuple[InterfererSpec, ...] = ()
    delay_params: DelayParams = field(default_factory=DelayParams)
    power_profile: DevicePowerProfile = field(default_factory=DevicePowerProfile)
    alert_rule: AlertRule = field(default_factory=AlertRule)

    def sensor_ids(self) -> list[SensorId]:
        return [n.sensor_id(self.family_code) for n in self.nodes]

    def validate(self) -> None:
        for section, record in (
            (None, self),
            *((node.name, node) for node in self.nodes),
            *((intf.name, intf) for intf in self.interferers),
            ("delay", self.delay_params),
            ("power", self.power_profile),
        ):
            for f in fields(record):
                value = getattr(record, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValidationError(f"{section or _SECTION_OF[f.name]}.{f.name} must be finite")
        # Zero is allowed and yields an empty run.
        if self.duration_s < 0:
            raise ValidationError("scenario.duration_s must be >= 0")
        if self.mac_mode not in (TDMA, ALOHA):
            raise ValidationError(f"scenario.mac_mode must be '{TDMA}' or '{ALOHA}'")
        if self.sample_period_s <= 0:
            raise ValidationError("scenario.sample_period_s must be positive")
        if not self.nodes:
            raise ValidationError("at least one node section is required")
        serials = [n.serial for n in self.nodes]
        if len(set(serials)) != len(serials):
            raise ValidationError("node serial values must be unique")
        for node in self.nodes:
            if not 0 <= node.serial < 1 << 48:
                raise ValidationError(f"{node.name}.serial must fit in 48 bits")
            if node.distance_m < 0:
                raise ValidationError(f"{node.name}.distance_m must be >= 0")
        if not 0 <= self.family_code <= 0xFF:
            raise ValidationError("mac.family_code must fit in 8 bits")
        if self.guard_s < 0:
            raise ValidationError("mac.guard_s must be >= 0")
        if self.beacon_s < 0:
            raise ValidationError("mac.beacon_s must be >= 0")
        if self.noise_sigma_c < 0:
            raise ValidationError("sensor.noise_sigma_c must be >= 0")
        if self.range_m <= 0:
            raise ValidationError("medium.range_m must be positive")
        # One conversion must finish before the next sample fires.
        if self.sample_period_s < self.delay_params.sensor_conversion_s:
            raise ValidationError(
                "scenario.sample_period_s must be >= delay.sensor_conversion_s"
            )
        for intf in self.interferers:
            if intf.period_s <= 0:
                raise ValidationError(f"{intf.name}.period_s must be positive")
            if intf.start_s < 0:
                raise ValidationError(f"{intf.name}.start_s must be >= 0")
            if intf.bits <= 0:
                raise ValidationError(f"{intf.name}.bits must be positive")
            if intf.distance_m < 0:
                raise ValidationError(f"{intf.name}.distance_m must be >= 0")
        try:
            self.delay_params.validate()
            self.power_profile.validate()
            self.alert_rule.validate()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc


# Sections whose keys set ScenarioConfig fields of the same name.
_SCENARIO_SECTIONS = {
    "scenario": {
        "duration_s": finite_float, "seed": int, "mac_mode": str, "sample_period_s": finite_float
    },
    "sensor": {"noise_sigma_c": finite_float},
    "medium": {"range_m": finite_float},
    "mac": {"guard_s": finite_float, "beacon_s": finite_float, "family_code": lambda v: int(v, 0)},
}
_SECTION_OF = {name: section for section, keys in _SCENARIO_SECTIONS.items() for name in keys}
# Sections whose keys are the fields of one parameter record.
_RECORD_SECTIONS = {
    "delay": {
        f.name: (int if f.name == "mac_instruction_clocks" else finite_float) for f in fields(DelayParams)
    },
    "power": {f.name: finite_float for f in fields(DevicePowerProfile)},
    "alert": {f.name: finite_float for f in fields(AlertRule)},
}
_NODE_KEYS = {"serial": lambda v: int(v, 0), "distance_m": finite_float}
_INTF_KEYS = {
    "distance_m": finite_float, "period_s": finite_float, "start_s": finite_float, "bits": int
}


def parse_config_text(
    text: str, source: str = "<string>", base_dir: str | Path | None = None
) -> ScenarioConfig:
    """Parse config text into a validated ScenarioConfig.

    Raises ParseError (with line numbers) for malformed or unknown keys
    and ValidationError for consistent-but-wrong values.
    """
    scenario: dict[str, object] = {}
    records: dict[str, dict[str, object]] = {section: {} for section in _RECORD_SECTIONS}
    # A trace spec is parsed as it is read, so a csv path resolves
    # against the config file's directory.
    node_keys = {**_NODE_KEYS, "trace": lambda v: parse_trace(v, base_dir)}
    nodes: dict[str, dict[str, object]] = {}
    interferers: dict[str, dict[str, object]] = {}
    seen: set[str] = set()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"{source}:{lineno}: duplicate key '{key}'")
        seen.add(key)
        section, _, name = key.partition(".")
        if not name or "." in name:
            raise ParseError(f"{source}:{lineno}: expected 'section.key = value'")

        def convert(table: dict, target: dict) -> None:
            if name not in table:
                raise ParseError(f"{source}:{lineno}: unknown key '{key}'")
            try:
                target[name] = table[name](value)
            except (ValueError, OSError) as exc:
                raise ParseError(f"{source}:{lineno}: bad value for '{key}': {value!r} ({exc})") from None

        if section in _SCENARIO_SECTIONS:
            convert(_SCENARIO_SECTIONS[section], scenario)
        elif section in _RECORD_SECTIONS:
            convert(_RECORD_SECTIONS[section], records[section])
        elif section.startswith("node"):
            convert(node_keys, nodes.setdefault(section, {}))
        elif section.startswith("interferer"):
            convert(_INTF_KEYS, interferers.setdefault(section, {}))
        else:
            raise ParseError(f"{source}:{lineno}: unknown section '{section}'")

    node_specs = []
    for sec_name, entries in nodes.items():
        if "serial" not in entries:
            raise ValidationError(f"{sec_name}.serial is required")
        node_specs.append(NodeSpec(name=sec_name, **entries))
    intf_specs = [InterfererSpec(name=sec, **entries) for sec, entries in interferers.items()]

    config = ScenarioConfig(
        nodes=tuple(node_specs),
        interferers=tuple(intf_specs),
        delay_params=DelayParams(**records["delay"]),
        power_profile=DevicePowerProfile(**records["power"]),
        alert_rule=AlertRule(**records["alert"]),
        **scenario,
    )
    config.validate()
    return config


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path), base_dir=path.parent)


def config_help() -> str:
    """Documented key list with defaults, for --help and the README."""
    d = ScenarioConfig(nodes=(NodeSpec("node1", 0),))
    lines = [
        "Scenario file keys (one 'section.key = value' per line, # comments):",
        f"  scenario.duration_s        simulated seconds (default {d.duration_s})",
        f"  scenario.seed              integer RNG seed (default {d.seed})",
        f"  scenario.mac_mode          tdma | aloha (default {d.mac_mode})",
        f"  scenario.sample_period_s   seconds between conversions (default {d.sample_period_s})",
        f"  sensor.noise_sigma_c       Gaussian sensor noise, degC (default {d.noise_sigma_c})",
        f"  medium.range_m             radio disk range, meters (default {d.range_m})",
        f"  mac.guard_s                slot guard margin (default {d.guard_s})",
        f"  mac.beacon_s               beacon slot length (default {d.beacon_s})",
        f"  mac.family_code            sensor id family byte (default 0x{d.family_code:02x})",
        "  node<k>.serial             48-bit sensor serial (required, one section per node)",
        "  node<k>.trace              constant:C | ramp:C,rate/min | sinusoid:mean,amp,period[,phase]",
        "                             | band:low,high | csv:path (default constant:37.0)",
        "  node<k>.distance_m         node-to-access-point distance (default 10.0)",
        "  interferer<k>.distance_m   foreign transmitter distance (default 10.0)",
        "  interferer<k>.period_s     burst period (default 1.0)",
        "  interferer<k>.start_s      first burst time (default 0.0)",
        "  interferer<k>.bits         burst length in bits (default 256)",
        "  delay.<field>              any DelayParams field, e.g. delay.air_data_rate_bps",
        "  power.<field>              any DevicePowerProfile field, e.g. power.radio_i_transmit_a",
        "  alert.<field>              high_threshold_c, rise_rate_c_per_min, rise_window_s",
    ]
    return "\n".join(lines)

"""Scenario configuration: a flat key-value file format plus validation.

The format is deliberately plain so a scenario can be written by hand
and diffed: one ``section.key = value`` per line, ``#`` comments, no
nesting.  Sections ``node<k>`` and ``interferer<k>`` may repeat with
different ``<k>`` tokens to declare several entities.

Each key is declared once, in ``KEYS``, which parsing, validation and
``--help`` all walk; it sets the field of its name on its section's
record.  ``validate`` keeps as code the rules that tie fields together,
among them the rejection of a config whose delay terms overflow a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from .delays import DelayParams, airtime, mcu_prep_delay, propagation_delay, serial_delay, total_delay, usb_delay
from .energy import DevicePowerProfile
from .frames import DEFAULT_FAMILY, FRAME_BITS, SensorId, make_sensor_id
from .mac import DEFAULT_BEACON_S, DEFAULT_GUARD_S, SlotSchedule, build_schedule
from .monitor import AlertRule
from .traces import ConstantTrace, TemperatureTrace, finite_float, parse_trace

TDMA = "tdma"
ALOHA = "aloha"

# A node or interferer name, which events.csv carries unquoted.
_SECTION_NAME = re.compile(r"[A-Za-z0-9_]+")


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


_int0 = partial(int, base=0)  # decimal, or 0x hex

# section -> key -> (parser, bound, help text formatted with the default).
# validate checks a float with a bound is finite, then the bound; None
# checks nothing.  A trace spec also gets the config file's directory.
KEYS: dict[str, dict[str, tuple[Callable[[str], object], str | None, str]]] = {
    "scenario": {
        "duration_s": (finite_float, ">= 0", "simulated seconds (default {})"),  # 0: an empty run
        "seed": (int, None, "integer RNG seed (default {})"),
        "mac_mode": (str, None, f"{TDMA} | {ALOHA} (default {{}})"),
        "sample_period_s": (finite_float, "positive", "seconds between conversions (default {})"),
    },
    "sensor": {"noise_sigma_c": (finite_float, ">= 0", "Gaussian sensor noise, degC (default {})")},
    "medium": {"range_m": (finite_float, "positive", "radio disk range, meters (default {})")},
    "mac": {
        "guard_s": (finite_float, ">= 0", "slot guard margin (default {})"),
        "beacon_s": (finite_float, ">= 0", "beacon slot length (default {})"),
        "family_code": (_int0, None, "sensor id family byte (default 0x{:02x})"),
    },
    "node": {
        "serial": (_int0, None, "48-bit sensor serial (required, one section per node)"),
        "trace": (parse_trace, None, "constant:C | ramp:C,rate/min | sinusoid:mean,amp,period[,phase]\n"
                  "| band:low,high | csv:path (default constant:{.value_c})"),
        "distance_m": (finite_float, ">= 0", "node-to-access-point distance (default {})"),
    },
    "interferer": {
        "distance_m": (finite_float, ">= 0", "foreign transmitter distance (default {})"),
        "period_s": (finite_float, "finite", "burst period, >= ulp(scenario.duration_s) (default {})"),
        "start_s": (finite_float, ">= 0", "first burst time (default {})"),
        "bits": (int, "positive", "burst length in bits (default {})"),
    },
    "delay": {
        "mcu_clock_hz": (finite_float, "positive", "MCU clock frequency (default {})"),
        "mac_instruction_clocks": (int, ">= 0", "MCU clocks to prepare a packet, t1 (default {})"),
        "radio_switch_delay_s": (finite_float, "positive", "radio mode switch, t2 and t5 (default {})"),
        "air_data_rate_bps": (finite_float, "positive", "air data rate, t4 (default {})"),
        "serial_rate_bps": (finite_float, "positive", "RS232 serial rate, t6 (default {})"),
        "usb_rate_bps": (finite_float, "positive", "USB rate, t8 (default {})"),
        "sensor_conversion_s": (finite_float, "positive", "sensor conversion time, t7 (default {})"),
        "propagation_speed_mps": (finite_float, "positive", "radio propagation speed, t3 (default {})"),
    },
    "power": {
        "supply_voltage_v": (finite_float, "positive", "supply voltage (default {})"),
        "radio_i_transmit_a": (finite_float, ">= 0", "radio transmit current, A (default {})"),
        "radio_i_receive_a": (finite_float, ">= 0", "radio receive current, A (default {})"),
        "radio_i_idle_a": (finite_float, ">= 0", "radio idle current, A (default {})"),
        "sensor_i_active_a": (finite_float, ">= 0", "sensor active current, A (default {})"),
        "sensor_i_idle_a": (finite_float, ">= 0", "sensor idle current, A (default {})"),
        "mcu_i_active_a": (finite_float, ">= 0", "MCU active current, A (default {})"),
        "mcu_i_idle_a": (finite_float, ">= 0", "MCU idle current, A (default {})"),
    },
    # AlertRule.validate checks these: finite and positive.
    "alert": {
        "high_threshold_c": (finite_float, None, "high-temperature alert threshold, degC (default {})"),
        "rise_rate_c_per_min": (finite_float, None, "rise-rate alert threshold, degC/min (default {})"),
        "rise_window_s": (finite_float, None, "rise-rate window, seconds (default {})"),
    },
}
_BOUNDS = {"finite": lambda v: True, ">= 0": lambda v: v >= 0, "positive": lambda v: v > 0}


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

    def schedule(self) -> SlotSchedule:
        """The TDMA slot layout of this cell's nodes, for its frame size."""
        return build_schedule(
            self.sensor_ids(), FRAME_BITS, self.delay_params, guard_s=self.guard_s, beacon_s=self.beacon_s
        )

    def sections(self) -> list[tuple[str, str, object]]:
        """(KEYS section, section name, record its keys set) for every section."""
        return [
            *((section, section, self) for section in ("scenario", "sensor", "medium", "mac")),
            *(("node", node.name, node) for node in self.nodes),
            *(("interferer", intf.name, intf) for intf in self.interferers),
            ("delay", "delay", self.delay_params),
            ("power", "power", self.power_profile),
            ("alert", "alert", self.alert_rule),
        ]

    def validate(self) -> None:
        for spec in (*self.nodes, *self.interferers):
            if not _SECTION_NAME.fullmatch(spec.name):
                raise ValidationError(
                    f"section name {spec.name!r} must be letters, digits and underscores"
                )
        for section, name, record in self.sections():
            for key, (_, bound, _) in KEYS[section].items():
                if bound is None:
                    continue
                value = getattr(record, key)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValidationError(f"{name}.{key} must be finite")
                if not _BOUNDS[bound](value):
                    raise ValidationError(f"{name}.{key} must be {bound}")
        if self.mac_mode not in (TDMA, ALOHA):
            raise ValidationError(f"scenario.mac_mode must be '{TDMA}' or '{ALOHA}'")
        if not self.nodes:
            raise ValidationError("at least one node section is required")
        serials = [n.serial for n in self.nodes]
        if len(set(serials)) != len(serials):
            raise ValidationError("node serial values must be unique")
        for node in self.nodes:
            if not 0 <= node.serial < 1 << 48:
                raise ValidationError(f"{node.name}.serial must fit in 48 bits")
        if not 0 <= self.family_code <= 0xFF:
            raise ValidationError("mac.family_code must fit in 8 bits")
        # One conversion must finish before the next sample fires.
        if self.sample_period_s < self.delay_params.sensor_conversion_s:
            raise ValidationError(
                "scenario.sample_period_s must be >= delay.sensor_conversion_s"
            )
        for intf in self.interferers:
            if intf.period_s < math.ulp(self.duration_s):  # so t + period_s > t for each t <= duration_s
                raise ValidationError(f"{intf.name}.period_s must be at least ulp(scenario.duration_s)")
        try:
            self.power_profile.validate()
            self.alert_rule.validate()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        # A positive, finite rate can still make a derived time overflow.
        p = self.delay_params
        derived = {
            "t1 = delay.mac_instruction_clocks / delay.mcu_clock_hz": partial(mcu_prep_delay, p),
            "t4 = frame bits / delay.air_data_rate_bps": partial(airtime, FRAME_BITS, p),
            "t6 = frame bits / delay.serial_rate_bps": partial(serial_delay, FRAME_BITS, p),
            "t8 = frame bits / delay.usb_rate_bps": partial(usb_delay, FRAME_BITS, p),
        }
        # t3 and the total grow with the distance, so the farthest node has the largest.
        far = max(self.nodes, key=lambda n: n.distance_m)
        derived[f"t3 = {far.name}.distance_m / delay.propagation_speed_mps"] = partial(
            propagation_delay, far.distance_m, p)
        derived[f"{far.name}'s total delay"] = lambda: total_delay(FRAME_BITS, far.distance_m, p).total
        for intf in self.interferers:
            derived[f"{intf.name}.bits / delay.air_data_rate_bps"] = partial(airtime, intf.bits, p)
        if self.mac_mode == TDMA:
            derived["the TDMA frame period from delay.air_data_rate_bps, delay.radio_switch_delay_s, mac.guard_s "
                    "and mac.beacon_s"] = lambda: self.schedule().frame_period_s
        for what, compute in derived.items():
            try:
                value = compute()
            except OverflowError:  # an int too large for a float
                value = math.inf
            if not math.isfinite(value):
                raise ValidationError(f"{what} overflows")


def parse_config_text(
    text: str, source: str = "<string>", base_dir: str | Path | None = None
) -> ScenarioConfig:
    """Parse config text into a validated ScenarioConfig.

    Raises ParseError (with line numbers) for malformed or unknown keys
    and ValidationError for consistent-but-wrong values.
    """
    # Values by (KEYS section, section name), in order of first appearance.
    values: dict[tuple[str, str], dict[str, object]] = {}
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
        # node<k> and interferer<k> repeat, one section per entity.
        kind = "node" if section.startswith("node") else "interferer" if section.startswith("interferer") else section
        if kind not in KEYS:
            raise ParseError(f"{source}:{lineno}: unknown section '{section}'")
        if name not in KEYS[kind]:
            raise ParseError(f"{source}:{lineno}: unknown key '{key}'")
        parse = KEYS[kind][name][0]
        try:
            # A trace spec is parsed as it is read, so a csv path resolves
            # against the config file's directory.
            parsed = parse_trace(value, base_dir) if parse is parse_trace else parse(value)
        except (ValueError, OSError) as exc:
            raise ParseError(f"{source}:{lineno}: bad value for '{key}': {value!r} ({exc})") from None
        values.setdefault((kind, section), {})[name] = parsed

    for (kind, section), entries in values.items():
        if kind == "node" and "serial" not in entries:
            raise ValidationError(f"{section}.serial is required")

    def record(section: str) -> dict[str, object]:
        return values.get((section, section), {})

    config = ScenarioConfig(
        nodes=tuple(NodeSpec(name=s, **v) for (kind, s), v in values.items() if kind == "node"),
        interferers=tuple(InterfererSpec(name=s, **v) for (kind, s), v in values.items() if kind == "interferer"),
        delay_params=DelayParams(**record("delay")),
        power_profile=DevicePowerProfile(**record("power")),
        alert_rule=AlertRule(**record("alert")),
        **record("scenario"), **record("sensor"), **record("medium"), **record("mac"),
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
    defaults = ScenarioConfig(nodes=(NodeSpec("node1", 0),), interferers=(InterfererSpec("interferer1"),))
    lines = ["Scenario file keys (one 'section.key = value' per line, # comments):"]
    for section, name, record in defaults.sections():
        label = section if name == section else f"{section}<k>"
        for key, (_, _, text) in KEYS[section].items():
            text = text.format(getattr(record, key)).replace("\n", "\n" + " " * 33)
            lines.append(f"  {f'{label}.{key}':<30} {text}")
    return "\n".join(lines)

"""Scenario configuration: a flat key-value file format, validated into a run plan.

The format is deliberately plain so a scenario can be written by hand
and diffed: UTF-8 text, one ``section.key = value`` per line, ``#``
comments, no nesting.  Sections ``node<k>`` and ``interferer<k>`` may
repeat with different ``<k>`` tokens to declare several entities.

Each key is declared once, in ``KEYS``, which parsing, validation and
``--help`` all walk; it sets the field of its name on its section's
record.  ``ScenarioConfig.plan`` keeps as code the rules that tie fields
together, and returns the ``RunPlan`` whose terms the engine runs on.
"""

from __future__ import annotations

import math
import re
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .csvio import TICKS_PER_S
from .delays import DelayParams, airtime, mcu_prep_delay, propagation_delay, serial_delay, usb_delay
from .energy import DevicePowerProfile
from .frames import DEFAULT_FAMILY, FRAME_BITS, make_sensor_id
from .mac import DEFAULT_BEACON_S, DEFAULT_GUARD_S, slot_length
from .monitor import AlertRule
from .traces import (BandNoiseTrace, ConstantTrace, CsvTrace, RampTrace, SinusoidTrace, TemperatureTrace, finite_float,
                     parse_trace)

TDMA = "tdma"
ALOHA = "aloha"

# A node or interferer name, which events.csv carries unquoted.
_SECTION_NAME = re.compile(r"[A-Za-z0-9_]+")
# Universal newlines' breaks; str.splitlines also splits at \f, U+2028 and more.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class ConfigError(ValueError):
    """Base for configuration problems."""


class ParseError(ConfigError):
    """Malformed config text; message carries file and line context."""


class ValidationError(ConfigError):
    """Well-formed config with inconsistent values; names the field."""


class NodeSpec(NamedTuple):
    name: str
    serial: int
    trace: TemperatureTrace = ConstantTrace(37.0)
    distance_m: float = 10.0


class InterfererSpec(NamedTuple):
    """A foreign transmitter that periodically occupies the channel."""

    name: str
    distance_m: float = 10.0
    period_s: float = 1.0
    start_s: float = 0.0
    bits: int = 256


_int0 = partial(int, base=0)  # decimal, or 0x hex

# section -> key -> (parser, bound, help text formatted with the default).
# plan checks a float with a bound is finite, then the bound; None
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
        "period_s": (finite_float, "positive", "burst period (default {})"),
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
    "alert": {
        "high_threshold_c": (finite_float, "positive", "high-temperature alert threshold, degC (default {})"),
        "rise_rate_c_per_min": (finite_float, "positive", "rise-rate alert threshold, degC/min (default {})"),
        "rise_window_s": (finite_float, "positive", "rise-rate window, seconds (default {})"),
    },
}
_BOUNDS = {">= 0": lambda v: v >= 0, "positive": lambda v: v > 0}


class ScenarioConfig(NamedTuple):
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
    delay_params: DelayParams = DelayParams()
    power_profile: DevicePowerProfile = DevicePowerProfile()
    alert_rule: AlertRule = AlertRule()

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

    def plan(self) -> RunPlan:
        """Validate the scenario and compute, once, every term its run holds
        fixed; a ValidationError names the first key or span it cannot honour."""
        for section, name, record in self.sections():
            if not _SECTION_NAME.fullmatch(name):
                raise ValidationError(f"section name {name!r} must be letters, digits and underscores")
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
        # A device draws at least its idle current in each active state.
        for active, idle in (("radio_i_transmit_a", "radio_i_idle_a"), ("radio_i_receive_a", "radio_i_idle_a"),
                             ("sensor_i_active_a", "sensor_i_idle_a"), ("mcu_i_active_a", "mcu_i_idle_a")):
            if getattr(self.power_profile, active) < getattr(self.power_profile, idle):
                raise ValidationError(f"power.{active} must be >= power.{idle}")

        def ticks(label: str, seconds: float, span: bool = True) -> int:
            """``seconds`` in the nearest whole clock ticks, a half to even as
            ``round`` does; a span that is not 0 must not round to 0."""
            if seconds * TICKS_PER_S == math.inf:  # seconds, or its product, is infinite
                raise ValidationError(f"{label} overflows")
            num, den = seconds.as_integer_ratio()
            n, rem = divmod(num * TICKS_PER_S, den)
            if 2 * rem > den or 2 * rem == den and n & 1:
                n += 1
            if span and seconds and not n:
                raise ValidationError(f"{label} is not 0 but rounds to 0 ps")
            return n

        p = self.delay_params
        ids = [make_sensor_id(self.family_code, node.serial) for node in self.nodes]
        # Traces of one kind with equal fields read the same truth, so each
        # distinct one is evaluated once per instant.  The key holds the
        # kind because tuples compare by value alone: a ramp and a band
        # with equal fields are equal tuples.  Floats that compare equal
        # differ at most in the sign of a zero, which rounding to counts
        # erases.
        truth_of: dict[tuple[type, TemperatureTrace], int] = {}
        node_truth = tuple(truth_of.setdefault((type(n.trace), n.trace), len(truth_of)) for n in self.nodes)
        # Every span the run puts on its clock is converted once, here.
        t1, t4 = "t1 = delay.mac_instruction_clocks / delay.mcu_clock_hz", "t4 = frame bits / delay.air_data_rate_bps"
        spans = [ticks(label, seconds) for label, seconds in (
            ("scenario.duration_s", self.duration_s),
            ("scenario.sample_period_s", self.sample_period_s),
            (t1, _or_inf(mcu_prep_delay, p)),
            ("t2 = delay.radio_switch_delay_s", p.radio_switch_delay_s),
            (t4, airtime(FRAME_BITS, p)),
            ("t6 + t8 = frame bits / delay.serial_rate_bps + frame bits / delay.usb_rate_bps",
             serial_delay(FRAME_BITS, p) + usb_delay(FRAME_BITS, p)),
            ("t7 = delay.sensor_conversion_s", p.sensor_conversion_s),
        )]
        # sin() raises once its angle overflows, and the angle grows with t,
        # so an angle finite at the end of the run is finite at every instant.
        # A truth past the float range would be an infinite error in agreement.csv.
        end_s = spans[0] / TICKS_PER_S
        for node in self.nodes:
            trace = node.trace
            if isinstance(trace, SinusoidTrace) and not math.isfinite(
                    2.0 * math.pi * end_s / trace.period_s + trace.phase_rad):
                raise ValidationError(f"{node.name}.trace: the sinusoid's angle overflows before the end of the run")
            if not math.isfinite(_truth_reach(trace, end_s)):
                raise ValidationError(f"{node.name}.trace: its truth passes the float range before the end of the run")
        # The TDMA frame: a beacon, then one slot per node in ascending
        # serial order, all whole ticks, so every slot start is exact.
        beacon = slot = frame_period = 0
        if self.mac_mode == TDMA:
            beacon = ticks("mac.beacon_s", self.beacon_s, span=False)
            guard = ticks("mac.guard_s", self.guard_s, span=False)
            slot = slot_length(spans[4], spans[3], guard)  # t4 and t2
            frame_period = beacon + len(self.nodes) * slot
        rank = {serial: i for i, serial in enumerate(sorted(node.serial for node in self.nodes))}
        plan = RunPlan(
            self,
            *spans,
            slot,
            frame_period,
            tuple(
                NodePlan(node, sid, sid.hex(),
                         ticks(f"t3 = {node.name}.distance_m / delay.propagation_speed_mps",
                               propagation_delay(node.distance_m, p), span=False),
                         beacon + rank[node.serial] * slot)
                for node, sid in zip(self.nodes, ids)
            ),
            tuple(
                (ticks(f"{intf.name}.start_s", intf.start_s, span=False), ticks(f"{intf.name}.period_s", intf.period_s),
                 ticks(f"{intf.name}.bits / delay.air_data_rate_bps", _or_inf(airtime, intf.bits, p)))
                for intf in self.interferers
            ),
            tuple(trace for _, trace in truth_of),
            node_truth,
        )
        # A node's sensor, its MCU and, under ALOHA, its radio each end
        # one sample's work before the next sample's begins.
        busy = [("delay.sensor_conversion_s", plan.conversion), (t1, plan.prep)]
        if self.mac_mode == ALOHA:
            busy.append((f"{t4} under {ALOHA}", plan.airtime))
        for label, span in busy:
            if plan.sample_period < span:
                raise ValidationError(f"scenario.sample_period_s must be >= {label}")
        return plan


def _truth_reach(trace: TemperatureTrace, end_s: float) -> float:
    """A float that is finite exactly when every truth ``trace`` gives up
    to ``end_s`` is: a ramp's value at the end, a sinusoid's greatest
    magnitude, a band's width, a csv trace's largest step between rows."""
    if isinstance(trace, RampTrace):  # monotone in t
        return trace.value(end_s)
    if isinstance(trace, SinusoidTrace):
        return abs(trace.mean_c) + abs(trace.amplitude_c)
    if isinstance(trace, BandNoiseTrace):
        return trace.high_c - trace.low_c
    if isinstance(trace, CsvTrace):  # finite steps in time and temperature keep each interpolation finite
        return max((abs(b - a) for col in (trace.times_s, trace.temps_c) for a, b in zip(col, col[1:])), default=0.0)
    return 0.0  # a constant


def _or_inf(compute: Callable[..., float], *args) -> float:
    try:
        return compute(*args)
    except OverflowError:  # an int operand too large for a float
        return math.inf


class NodePlan(NamedTuple):
    """A node's fixed terms, and the name ``events.csv`` gives it.  Like
    every ``RunPlan`` term, its spans are whole ticks."""

    spec: NodeSpec
    sensor_id: bytes  # the 8-byte ROM code
    subject: str  # sensor_id.hex()
    propagation: int  # t3
    slot_offset: int  # from a TDMA frame's start to this node's slot; 0 under ALOHA


class RunPlan(NamedTuple):
    """A validated scenario and every term its run holds fixed, each
    computed once, by ``ScenarioConfig.plan``, in clock ticks
    (``csvio.TICKS_PER_S`` to the second)."""

    config: ScenarioConfig
    duration: int
    sample_period: int
    prep: int  # t1
    switch: int  # the radio switch, t2 and t5
    airtime: int  # a frame's, t4
    serial: int  # the serial transfer and its USB hop, t6 + t8
    conversion: int  # t7
    slot: int  # a TDMA slot's length; 0 under ALOHA
    frame_period: int  # the TDMA frame's, a beacon and a slot per node; 0 under ALOHA
    nodes: tuple[NodePlan, ...]
    bursts: tuple[tuple[int, int, int], ...]  # each interferer's start, period and airtime
    truths: tuple[TemperatureTrace, ...]
    node_truth: tuple[int, ...]  # node i reads truths[node_truth[i]]


def parse_config_text(
    text: str, source: str = "<string>", base_dir: str | Path | None = None
) -> ScenarioConfig:
    """Parse config text into a ScenarioConfig; ``plan`` validates it.

    Raises ParseError (with line numbers) for malformed or unknown keys
    and ValidationError for a node section without a serial.
    """
    # Values by (KEYS section, section name), in order of first appearance.
    values: dict[tuple[str, str], dict[str, object]] = {}
    seen: set[str] = set()

    for lineno, raw_line in enumerate(_LINE_BREAK.split(text), start=1):
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

    return ScenarioConfig(
        nodes=tuple(NodeSpec(name=s, **v) for (kind, s), v in values.items() if kind == "node"),
        interferers=tuple(InterfererSpec(name=s, **v) for (kind, s), v in values.items() if kind == "interferer"),
        delay_params=DelayParams(**record("delay")),
        power_profile=DevicePowerProfile(**record("power")),
        alert_rule=AlertRule(**record("alert")),
        **record("scenario"), **record("sensor"), **record("medium"), **record("mac"),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, which must be UTF-8 text (a leading byte-order mark is ignored)."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a byte-order mark, as exc.object does.
        lineno = len(_LINE_BREAK.split(exc.object[:exc.start].decode("utf-8")))
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(path), base_dir=path.parent)


def config_help() -> str:
    """Documented key list with defaults, for --help and the README."""
    defaults = ScenarioConfig(nodes=(NodeSpec("node1", 0),), interferers=(InterfererSpec("interferer1"),))
    lines = ["Scenario file keys (one 'section.key = value' per line, # comments):"]
    for section, name, record in defaults.sections():
        label = section if name == section else f"{section}<k>"
        for key, (_, _, text) in KEYS[section].items():
            text = text.format(getattr(record, key)).replace("\n", "\n" + " " * 33)
            lines.append(f"  {f'{label}.{key}':<30} {text}")
    lines.append("\nThe run's clock counts whole picoseconds, and each span is converted to the nearest one.  Every\n"
                 "span it adds to that clock (the duration, the sample period, t1 unless 0, t2, t4, t6 + t8, t7,\n"
                 "each burst's airtime and period) must not overflow it and, unless it is 0, must not round to\n"
                 "0 ps; under tdma, neither may mac.beacon_s nor mac.guard_s overflow it.  A TDMA slot is t4, two\n"
                 "t2 and the guard, rounded up to whole milliseconds; a frame is the beacon and one slot per\n"
                 "node, in ascending serial order.  A sinusoid's angle, 2 pi t / period + phase, must stay\n"
                 "finite up to the end of the run, and so must a ramp's value, a sinusoid's |mean| + |amp|, a\n"
                 "band's width and each step between a csv trace's rows.  Each power.*_active_a (and the radio's\n"
                 "transmit and receive) current must be at least its device's idle current.")
    return "\n".join(lines)

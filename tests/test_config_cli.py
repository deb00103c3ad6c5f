"""Scenario file parsing, validation messages, and the command line."""

from __future__ import annotations

import importlib
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import thermnet
from helpers import read_rows, run_logged, ticks_of
from thermnet.cli import _write_simulation_outputs, cmd_simulate, main
from thermnet.csvio import TICKS_PER_S
from thermnet.config import (
    ALOHA,
    KEYS,
    TDMA,
    ConfigError,
    InterfererSpec,
    ParseError,
    ScenarioConfig,
    NodeSpec,
    ValidationError,
    config_help,
    load_config,
    parse_config_text,
)
from thermnet.delays import DelayParams, total_delay
from thermnet.energy import DevicePowerProfile
from thermnet.monitor import AlertRule
from thermnet.traces import BandNoiseTrace, ConstantTrace, CsvTrace, RampTrace, SinusoidTrace

ROOT = Path(__file__).resolve().parent.parent

TWO_NODE_TEXT = """\
# two fixed-temperature nodes
scenario.duration_s = 20
scenario.seed = 5
node1.serial = 0x11A3
node1.trace = constant:36.5
node1.distance_m = 10
node2.serial = 0x2B40
node2.trace = constant:30.0
node2.distance_m = 25
"""


def write_config(tmp_path, text, name="scenario.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing -----------------------------------------------------------


def test_minimal_config_defaults():
    config = parse_config_text("node1.serial = 1\n")
    assert config.duration_s == 60.0
    assert config.seed == 1
    assert config.mac_mode == "tdma"
    assert config.sample_period_s == 1.0
    assert config.noise_sigma_c == 0.1
    assert config.range_m == 100.0
    assert config.family_code == 0x28
    assert len(config.nodes) == 1
    assert isinstance(config.nodes[0].trace, ConstantTrace)
    assert config.interferers == ()


def test_all_sections_parse():
    text = """
    scenario.duration_s = 12.5
    scenario.seed = 42
    scenario.mac_mode = aloha
    scenario.sample_period_s = 2.0
    sensor.noise_sigma_c = 0.0
    medium.range_m = 50
    mac.guard_s = 0.004
    mac.beacon_s = 0.003
    mac.family_code = 0x10
    delay.air_data_rate_bps = 38400
    power.radio_i_transmit_a = 0.02
    alert.high_threshold_c = 39.5
    node1.serial = 7
    interferer1.period_s = 0.5
    interferer1.bits = 512
    interferer1.start_s = 1.5
    interferer1.distance_m = 3
    """
    config = parse_config_text(text)
    assert config.duration_s == 12.5
    assert config.mac_mode == "aloha"
    assert config.noise_sigma_c == 0.0
    assert config.range_m == 50.0
    assert config.guard_s == 0.004
    assert config.beacon_s == 0.003
    assert config.family_code == 0x10
    assert config.delay_params.air_data_rate_bps == 38400.0
    assert config.power_profile.radio_i_transmit_a == 0.02
    assert config.alert_rule.high_threshold_c == 39.5
    assert config.interferers[0].period_s == 0.5
    assert config.interferers[0].bits == 512


def test_trace_specs():
    text = """
    node1.serial = 1
    node1.trace = constant:36.5
    node2.serial = 2
    node2.trace = ramp:36.0,0.5
    node3.serial = 3
    node3.trace = sinusoid:37.0,0.5,600
    node4.serial = 4
    node4.trace = band:26,30
    """
    config = parse_config_text(text)
    kinds = {n.name: type(n.trace) for n in config.nodes}
    assert kinds["node1"] is ConstantTrace
    assert kinds["node2"] is RampTrace
    assert kinds["node3"] is SinusoidTrace
    assert kinds["node4"] is BandNoiseTrace


def test_csv_trace_resolved_relative_to_config(tmp_path):
    (tmp_path / "profile.csv").write_text("0.0,36.0\n10.0,37.0\n")
    path = write_config(tmp_path, "node1.serial = 1\nnode1.trace = csv:profile.csv\n")
    config = load_config(path)
    trace = config.nodes[0].trace
    assert isinstance(trace, CsvTrace)
    assert trace.value(5.0) == pytest.approx(36.5)


def test_node_serial_hex_and_decimal():
    config = parse_config_text("node1.serial = 0x1f\nnode2.serial = 31000\n")
    serials = sorted(n.serial for n in config.nodes)
    assert serials == [0x1F, 31000]


def test_comments_and_blank_lines_ignored():
    config = parse_config_text("# header\n\n  # indented comment\nnode1.serial = 1\n")
    assert len(config.nodes) == 1


# -- parse errors with position ----------------------------------------


def test_missing_equals_reports_line():
    with pytest.raises(ParseError, match=r"<string>:2"):
        parse_config_text("node1.serial = 1\nnode1.distance_m 10\n")


def test_unknown_section_reports_line():
    with pytest.raises(ParseError, match=r":1: unknown section 'radio'"):
        parse_config_text("radio.power = 3\n")


def test_unknown_key_reports_key():
    with pytest.raises(ParseError, match=r"unknown key 'node1.color'"):
        parse_config_text("node1.serial = 1\nnode1.color = red\n")


def test_bad_value_reports_value():
    with pytest.raises(ParseError, match=r"bad value for 'scenario.duration_s'"):
        parse_config_text("scenario.duration_s = soon\nnode1.serial = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match=r":3: duplicate key"):
        parse_config_text("node1.serial = 1\nscenario.seed = 2\nscenario.seed = 3\n")


@pytest.mark.parametrize("char", ["\u2028", "\x0c", "\x1c", "\x85"], ids=["U+2028", "FF", "FS", "NEL"])
def test_only_universal_newlines_end_a_line(char):
    # str.splitlines breaks at each of these; an editor shows them inside a line.
    with pytest.raises(ParseError, match=r"<string>:1: bad value for 'node1.serial'"):
        parse_config_text(f"node1.serial = 1{char}node2.serial = 2\n")
    with pytest.raises(ParseError, match=r"<string>:2: bad value for 'node1.serial'"):
        parse_config_text(f"scenario.seed = 3\nnode1.serial = 1{char}bogus\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"], ids=["CRLF", "CR", "LF"])
def test_crlf_and_cr_files_parse(tmp_path, newline):
    path = tmp_path / "scenario.conf"
    path.write_bytes(TWO_NODE_TEXT.replace("\n", newline).encode())
    assert load_config(path) == parse_config_text(TWO_NODE_TEXT, base_dir=tmp_path)
    with pytest.raises(ParseError, match=r"<string>:3: expected"):
        parse_config_text(f"node1.serial = 1{newline}{newline}garbage{newline}")
    path = tmp_path / "latin1.conf"
    path.write_bytes(f"node1.serial = 1{newline}# caf\xe9{newline}".encode("latin-1"))
    with pytest.raises(ParseError, match=r"latin1\.conf:2: not UTF-8 text"):
        load_config(path)


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.conf"
    with pytest.raises(ParseError, match="nope.conf"):
        load_config(missing)


def test_parse_error_carries_filename(tmp_path):
    path = write_config(tmp_path, "garbage\n", name="bad.conf")
    with pytest.raises(ParseError, match=r"bad\.conf:1"):
        load_config(path)


@pytest.mark.parametrize("command", ["simulate", "schedule"])
def test_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys, command):
    path = tmp_path / "latin1.conf"
    path.write_bytes(b"node1.serial = 1\n# caf\xe9\n")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    assert main(argv if command == "simulate" else ["report", "schedule", *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2: not UTF-8 text (invalid continuation byte)\n"
    assert not out.exists()


# -- validation --------------------------------------------------------


def test_duplicate_serial_rejected():
    with pytest.raises(ValidationError, match="unique"):
        parse_config_text("node1.serial = 5\nnode2.serial = 5\n").plan()


def test_node_without_serial_rejected():
    with pytest.raises(ValidationError, match="node1.serial"):
        parse_config_text("node1.distance_m = 5\n")


def test_no_nodes_rejected():
    with pytest.raises(ValidationError, match="node"):
        parse_config_text("scenario.duration_s = 5\n").plan()


def test_bad_mac_mode_rejected():
    with pytest.raises(ValidationError, match="mac_mode"):
        parse_config_text("node1.serial = 1\nscenario.mac_mode = csma\n").plan()


def test_sample_period_must_cover_conversion():
    with pytest.raises(ValidationError, match="sample_period_s"):
        parse_config_text("node1.serial = 1\nscenario.sample_period_s = 0.5\n").plan()


def test_negative_duration_rejected_zero_allowed():
    with pytest.raises(ValidationError, match="duration_s"):
        parse_config_text("node1.serial = 1\nscenario.duration_s = -1\n").plan()
    config = parse_config_text("node1.serial = 1\nscenario.duration_s = 0\n").plan().config
    assert config.duration_s == 0.0


STALLING_INTERFERER = (
    "node1.serial = 1\nscenario.duration_s = 5.0\ninterferer1.start_s = 1.0\ninterferer1.period_s = {}\n"
)


PERIODS_THAT_STALL = [
    ("1e-20", "is not 0 but rounds to 0 ps"),
    (repr(math.nextafter(math.ulp(5.0), 0.0)), "is not 0 but rounds to 0 ps"),
    ("5e-13", "is not 0 but rounds to 0 ps"),
    ("0", "must be positive"),
    ("-1", "must be positive"),
]


@pytest.mark.parametrize("period, message", PERIODS_THAT_STALL, ids=[period for period, _ in PERIODS_THAT_STALL])
def test_interferer_period_that_cannot_advance_the_clock_rejected(period, message):
    # A period under half a tick would requeue its burst at the same tick
    # forever.  Only the config is checked; nothing is run.
    with pytest.raises(ValidationError, match=f"^interferer1.period_s {message}$"):
        parse_config_text(STALLING_INTERFERER.format(period)).plan()


def test_interferer_period_of_one_tick_advances_every_burst():
    assert parse_config_text(STALLING_INTERFERER.format("1e-12")).plan().bursts[0][:2] == (TICKS_PER_S, 1)
    # Bursts from 0 every tick, in a run of ten ticks: one at each tick.
    plan = parse_config_text("node1.serial = 1\nscenario.duration_s = 1e-11\ninterferer1.period_s = 1e-12\n").plan()
    _, events = run_logged(plan)
    assert [(e.time, e.kind, e.subject) for e in events] == [(t, "tx_start", "interferer1") for t in range(11)]


NON_FINITE_KEYS = [
    "scenario.duration_s",
    "scenario.sample_period_s",
    "medium.range_m",
    "node1.distance_m",
    "interferer1.period_s",
    "delay.air_data_rate_bps",
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", NON_FINITE_KEYS)
def test_non_finite_value_exits_1_naming_key_and_line(tmp_path, capsys, key, value):
    config = write_config(tmp_path, f"node1.serial = 1\nscenario.seed = 2\n{key} = {value}\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f":3: bad value for '{key}'" in capsys.readouterr().err


BAD_TRACE_SPECS = [
    "constant:nan", "band:30,inf", "foo:1", "ramp:1", "csv:missing.csv", "sinusoid:37,1,inf", "csv:nan_row.csv",
    "csv:bad_row_after_header.csv",
]


@pytest.mark.parametrize("spec", BAD_TRACE_SPECS)
def test_bad_trace_spec_exits_1_naming_key_and_line(tmp_path, capsys, spec):
    (tmp_path / "nan_row.csv").write_text("time_s,temp_c\n0.0,36.0\n10.0,nan\n")
    # Only the first row may be a header.
    (tmp_path / "bad_row_after_header.csv").write_text("time,temp\ngarbage,row\n0,36\n60,37\n")
    config = write_config(tmp_path, f"node1.serial = 1\nscenario.seed = 2\nnode1.trace = {spec}\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and f":3: bad value for 'node1.trace': '{spec}'" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["duration_s", "sample_period_s"])
def test_validate_rejects_non_finite_timing(field, value):
    config = ScenarioConfig(nodes=(NodeSpec("node1", 1),))._replace(**{field: value})
    with pytest.raises(ValidationError, match=f"scenario.{field} must be finite"):
        config.plan()


NON_FINITE_FIELDS = [
    ("node1.distance_m", lambda c, v: c._replace(nodes=(c.nodes[0]._replace(distance_m=v),))),
    ("medium.range_m", lambda c, v: c._replace(range_m=v)),
    ("sensor.noise_sigma_c", lambda c, v: c._replace(noise_sigma_c=v)),
    ("mac.guard_s", lambda c, v: c._replace(guard_s=v)),
    ("delay.air_data_rate_bps", lambda c, v: c._replace(delay_params=DelayParams(air_data_rate_bps=v))),
    ("power.supply_voltage_v", lambda c, v: c._replace(power_profile=DevicePowerProfile(supply_voltage_v=v))),
    ("interferer1.start_s", lambda c, v: c._replace(interferers=(InterfererSpec("interferer1", start_s=v),))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key, build", NON_FINITE_FIELDS, ids=[key for key, _ in NON_FINITE_FIELDS])
def test_validate_rejects_non_finite_field(key, build, value):
    config = build(ScenarioConfig(nodes=(NodeSpec("node1", 1),), duration_s=5.0), value)
    with pytest.raises(ValidationError, match=f"^{key} must be finite$"):
        config.plan()


def test_oversized_serial_rejected():
    with pytest.raises(ValidationError, match="48 bits"):
        ScenarioConfig(nodes=(NodeSpec("node1", 1 << 48),)).plan()


def test_config_help_documents_keys():
    text = config_help()
    for fragment in ("scenario.duration_s", "node<k>.serial", "interferer<k>.period_s",
                     "delay.", "power.", "alert.", "mac.family_code"):
        assert fragment in text


@pytest.mark.parametrize(
    "line, message",
    [
        ("delay.air_data_rate_bps = 0", "delay.air_data_rate_bps must be positive"),
        ("delay.mac_instruction_clocks = -1", "delay.mac_instruction_clocks must be >= 0"),
        ("power.supply_voltage_v = 0", "power.supply_voltage_v must be positive"),
        ("power.radio_i_idle_a = -1e-6", "power.radio_i_idle_a must be >= 0"),
        ("power.radio_i_idle_a = 0.05", "radio active currents must be >= idle current"),
        ("power.mcu_i_active_a = 1e-5", "mcu active current must be >= idle current"),
    ],
)
def test_record_value_out_of_bounds_names_its_key(line, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config_text(f"node1.serial = 1\n{line}\n").plan()


BOUNDED_KEYS = [
    (f"{section}1" if section in ("node", "interferer") else section, key, bound)
    for section, keys in KEYS.items()
    for key, (_, bound, _) in keys.items()
    if bound in (">= 0", "positive")
]


@pytest.mark.parametrize("section, key, bound", BOUNDED_KEYS, ids=[f"{s}.{k}" for s, k, _ in BOUNDED_KEYS])
def test_every_bounded_key_rejects_a_value_just_outside(section, key, bound):
    value = "0" if bound == "positive" else "-1"
    with pytest.raises(ValidationError, match=f"^{section}.{key} must be {bound}$"):
        parse_config_text(f"node1.serial = 1\n{section}.{key} = {value}\n").plan()


def _printed_defaults() -> dict[str, str | None]:
    """Each key config_help() lists, with the default it prints, if any.
    The key list ends at the blank line before the span rule."""
    printed = {}
    for entry in re.split(r"\n  (?=\S)", config_help().split("\n\n")[0])[1:]:
        key, text = entry.split(None, 1)
        default = re.search(r"\(default (.*)\)$", text)
        printed[key] = default and default.group(1)
    return printed


def test_setting_every_key_to_its_printed_default_changes_nothing():
    printed = _printed_defaults()
    assert [key for key, default in printed.items() if default is None] == ["node<k>.serial"]
    text = "node1.serial = 1\n" + "".join(
        f"{key.replace('<k>', '1')} = {default}\n" for key, default in printed.items() if default is not None
    )
    bare = parse_config_text("node1.serial = 1\n")
    assert parse_config_text(text) == bare._replace(interferers=(InterfererSpec("interferer1"),))


def test_every_field_has_exactly_one_key():
    # A field without a key could not be set from a scenario file, nor
    # would --help list it.
    config = ScenarioConfig(nodes=(NodeSpec("node1", 1),), interferers=(InterfererSpec("interferer1"),))
    keys: dict[type, list[str]] = {}
    for section, _, record in config.sections():
        keys.setdefault(type(record), []).extend(KEYS[section])
    assert {section for section, _, _ in config.sections()} == set(KEYS)
    unkeyed = {"name", "nodes", "interferers", "delay_params", "power_profile", "alert_rule"}
    for record_type, record_keys in keys.items():
        assert sorted(record_keys) == sorted(f for f in record_type._fields if f not in unkeyed)
    assert set(keys) == {ScenarioConfig, NodeSpec, InterfererSpec, DelayParams, DevicePowerProfile, AlertRule}


# A rate can be positive and finite and still make a derived time overflow,
# as a float or as a count of picosecond ticks.
OVERFLOWING = [
    ("delay.air_data_rate_bps = 5e-324", "t4 = frame bits / delay.air_data_rate_bps overflows"),
    # The airtime is finite, but not in ticks.
    ("delay.air_data_rate_bps = 1e-295", "t4 = frame bits / delay.air_data_rate_bps overflows"),
    ("interferer1.bits = 1" + "0" * 320, "interferer1.bits / delay.air_data_rate_bps overflows"),
    ("delay.mcu_clock_hz = 5e-324", "t1 = delay.mac_instruction_clocks / delay.mcu_clock_hz overflows"),
    ("delay.mac_instruction_clocks = 1" + "0" * 400, "t1 = delay.mac_instruction_clocks"),
    ("mac.guard_s = 1e306", "mac.guard_s overflows"),
    # t3 is checked at each node; here it is finite, but not in ticks.
    ("node2.serial = 2\nnode2.distance_m = 1e300\ndelay.propagation_speed_mps = 1e3",
     "t3 = node2.distance_m / delay.propagation_speed_mps overflows"),
    ("interferer1.start_s = 1e300", "interferer1.start_s overflows"),
]


@pytest.mark.parametrize("lines, message", OVERFLOWING, ids=[lines[:36] for lines, _ in OVERFLOWING])
@pytest.mark.parametrize("command", ["simulate", "schedule"])
def test_config_whose_delay_terms_overflow_exits_1(tmp_path, capsys, command, lines, message):
    path = write_config(tmp_path, f"node1.serial = 1\nscenario.duration_s = 3\n{lines}\n")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    assert main(argv if command == "simulate" else ["report", "schedule", *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# Configs a run cannot honour, though every key is in its bounds.
_HUGE_CLOCK = "scenario.duration_s = 1e300\nscenario.sample_period_s = 3e299\n"
_TO_0 = "is not 0 but rounds to 0 ps"
UNHONOURED = [
    (_HUGE_CLOCK, "scenario.duration_s overflows"),
    (_HUGE_CLOCK + "scenario.mac_mode = aloha", "scenario.duration_s overflows"),
    ("scenario.duration_s = 1e-13", f"scenario.duration_s {_TO_0}"),
    ("delay.mcu_clock_hz = 1e16", f"t1 = delay.mac_instruction_clocks / delay.mcu_clock_hz {_TO_0}"),
    # A 1-bit burst at 1e13 bit/s lasts 0.1 ps.
    ("delay.air_data_rate_bps = 1e13\ninterferer1.bits = 1", f"interferer1.bits / delay.air_data_rate_bps {_TO_0}"),
    ("delay.radio_switch_delay_s = 1e-13", f"t2 = delay.radio_switch_delay_s {_TO_0}"),
    ("delay.serial_rate_bps = 1e16\ndelay.usb_rate_bps = 1e16",
     f"t6 + t8 = frame bits / delay.serial_rate_bps + frame bits / delay.usb_rate_bps {_TO_0}"),
    ("delay.sensor_conversion_s = 1e-13", f"t7 = delay.sensor_conversion_s {_TO_0}"),
    # A node's MCU, or its radio under ALOHA, would work on two samples at
    # once and be busy for longer than the run.
    ("scenario.duration_s = 10\ndelay.mac_instruction_clocks = 40000000",
     "scenario.sample_period_s must be >= t1 = delay.mac_instruction_clocks / delay.mcu_clock_hz"),
    ("scenario.duration_s = 1\nscenario.sample_period_s = 0.05\nscenario.mac_mode = aloha\n"
     "delay.sensor_conversion_s = 0.01\ndelay.air_data_rate_bps = 284",
     "scenario.sample_period_s must be >= t4 = frame bits / delay.air_data_rate_bps under aloha"),
]


@pytest.mark.parametrize(
    "lines, message",
    UNHONOURED,
    ids=["tdma", "aloha", "duration_to_0", "t1", "burst", "switch", "serial_usb", "conversion", "mcu", "radio"],
)
def test_config_the_run_cannot_honour_exits_1(tmp_path, capsys, lines, message):
    path = write_config(tmp_path, f"node1.serial = 1\n{lines}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_long_run_keeps_every_span():
    # ulp(1e20) is 16,384 s, so a float clock lost t1 (39.5 us) and every
    # other default span, and the plan rejected this run.  In ticks each
    # conversion still ends t7 after its instant, and every frame arrives.
    plan = parse_config_text("node1.serial = 1\nscenario.duration_s = 1e20\nscenario.sample_period_s = 3e19\n").plan()
    assert (plan.prep, plan.conversion) == (39_500_000, 750_000_000_000)
    result, events = run_logged(plan)
    done = [e.time for e in events if e.kind == "conversion_done"]
    assert done == [k * plan.sample_period + plan.conversion for k in range(4)]
    assert result.stats.delivered == 4


def test_busy_time_that_fills_the_run_is_not_longer_than_it(tmp_path):
    # The conversion takes the whole sample period, and the float sum of
    # the 29 conversions that end in the run is above the run's end.
    path = write_config(tmp_path, "node1.serial = 1\nscenario.duration_s = 51129.64858079871\n"
                        "scenario.sample_period_s = 1704.3216193599571\ndelay.sensor_conversion_s = 1704.3216193599571\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    ledger = read_rows(tmp_path / "out" / "ledgers.csv")[0]
    assert float(ledger["idle_j"]) >= 0


def test_report_schedule_rejects_an_aloha_frame_period_that_overflows(tmp_path, capsys):
    # The slot layout is reported for TDMA whatever the mode, so it is
    # planned as TDMA and its beacon and guard converted to ticks.
    path = write_config(tmp_path, "node1.serial = 1\nscenario.mac_mode = aloha\n"
                        "mac.beacon_s = 1.797e308\nmac.guard_s = 1e305\n")
    out = tmp_path / "schedule.csv"
    assert main(["report", "schedule", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: mac.beacon_s overflows\n"
    assert not out.exists()


def test_simulate_plans_once_and_builds_the_schedule_once(tmp_path, monkeypatch):
    calls = []
    plan, slot_length = ScenarioConfig.plan, thermnet.config.slot_length

    def counted_plan(self):
        calls.append("plan")
        return plan(self)

    def counted_slot_length(*args):
        calls.append("slot_length")
        return slot_length(*args)

    monkeypatch.setattr(ScenarioConfig, "plan", counted_plan)
    monkeypatch.setattr(thermnet.config, "slot_length", counted_slot_length)
    config = ROOT / "configs" / "scenario1.conf"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["plan", "slot_length"]


def test_a_huge_frame_period_is_exact(tmp_path):
    # Each guard fits the clock, so the frame of two such slots is a sum
    # of whole ticks, however far past a float it goes.
    path = write_config(tmp_path, "node1.serial = 1\nnode2.serial = 2\nmac.guard_s = 1e296\n")
    plan = load_config(path).plan()
    assert plan.frame_period == plan.nodes[1].slot_offset + plan.slot > 10**308
    out = tmp_path / "schedule.csv"
    assert main(["report", "schedule", "--config", str(path), "--out", str(out)]) == 0
    assert [float(row["frame_period_s"]) for row in read_rows(out)] == [plan.frame_period / TICKS_PER_S] * 2


@pytest.mark.parametrize("seconds, ticks", [
    # The float product 0.3823781053545 * 1e12 rounds down to ...354.5,
    # and then to ...354.
    (0.3823781053545, 382_378_105_355),
    (1e20, 10**32),
    # 2**-13 s is exactly 122,070,312.5 ticks, and a half goes to even.
    (2**-13, 122_070_312),
    (3 * 2**-13, 366_210_938),
])
def test_spans_convert_to_the_nearest_tick(seconds, ticks):
    plan = ScenarioConfig(nodes=(NodeSpec("node1", 1),), duration_s=seconds).plan()
    assert plan.duration == ticks


@given(st.just(0.0) | st.floats(min_value=1e-12, max_value=1e290) | st.floats(min_value=1e-12, max_value=100.0))
def test_spans_convert_exactly(seconds):
    plan = ScenarioConfig(nodes=(NodeSpec("node1", 1),), duration_s=seconds).plan()
    assert plan.duration == round(Fraction(seconds) * TICKS_PER_S)


# Any positive magnitude a key accepts, up to 1e290, so that spans in
# seconds still fit the picosecond clock, or the key's default.
_WIDE = st.floats(min_value=5e-324, max_value=1e290)
_DRAWN_KEYS = {
    "mac.guard_s": st.floats(min_value=0.0, max_value=1e290),
    "mac.beacon_s": st.floats(min_value=0.0, max_value=1e290),
    **{f"delay.{key}": _WIDE for key in ("mcu_clock_hz", "radio_switch_delay_s", "air_data_rate_bps",
                                         "serial_rate_bps", "usb_rate_bps", "sensor_conversion_s",
                                         "propagation_speed_mps")},
    "delay.mac_instruction_clocks": st.integers(min_value=0, max_value=10**6),
    "medium.range_m": _WIDE,
}


@st.composite
def _scenario_texts(draw) -> str:
    # Run lengths and spacings the clock can hold: 0, or 1 ps to 1e290 s.
    duration_s = draw(st.just(0.0) | st.floats(min_value=1e-12, max_value=1e290)
                      | st.floats(min_value=1e-12, max_value=100.0))
    # Samples and bursts at least duration_s / 64 apart bound a run's work.
    spaced = st.floats(min_value=max(duration_s / 64, 1e-12), max_value=1e290)
    keys = {
        "scenario.duration_s": duration_s,
        "scenario.sample_period_s": draw(spaced),
        "scenario.mac_mode": draw(st.sampled_from([TDMA, ALOHA])),
    }
    for key, values in _DRAWN_KEYS.items():
        value = draw(st.none() | values)  # None leaves the key at its default
        if value is not None:
            keys[key] = value
    for i in range(1, draw(st.integers(min_value=1, max_value=8)) + 1):
        keys[f"node{i}.serial"] = i
        keys[f"node{i}.distance_m"] = draw(st.floats(min_value=0.0, max_value=1e290))
    for j in range(1, draw(st.integers(min_value=0, max_value=2)) + 1):
        keys[f"interferer{j}.period_s"] = draw(spaced)
        keys[f"interferer{j}.start_s"] = draw(st.floats(min_value=0.0, max_value=1e290))
        keys[f"interferer{j}.distance_m"] = draw(st.floats(min_value=0.0, max_value=1e290))
        keys[f"interferer{j}.bits"] = draw(st.integers(min_value=1, max_value=8192))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@settings(max_examples=600, deadline=None)
@given(_scenario_texts())
@example("node1.serial = 1\n" + UNHONOURED[0][0] + "\n")
@example("node1.serial = 1\n" + UNHONOURED[1][0] + "\n")
@example("node1.serial = 1\n" + UNHONOURED[2][0] + "\n")
def test_simulate_exits_0_or_1_on_any_config_in_bounds(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.conf", Path(tmp) / "out"
        path.write_text(text)
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(["simulate", "--config", str(path), "--out", str(out)])
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
            return
        assert code == 0
        stats = {row["counter"]: int(row["value"]) for row in read_rows(out / "stats.csv")}
    ended = stats["delivered"] + stats["collisions"] + stats["corrupt"] + stats["out_of_range"]
    assert ended <= stats["transmissions"] <= stats["frames_queued"] - stats["replaced_pending"]
    assert stats["frames_queued"] - stats["replaced_pending"] <= stats["conversions"]


# -- command line ------------------------------------------------------


def test_simulate_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for name in ("events.csv", "readings.csv", "ledgers.csv", "alerts.csv",
                 "agreement.csv", "stats.csv"):
        assert (out / name).is_file(), name
    assert "readings" in capsys.readouterr().out
    readings = read_rows(out / "readings.csv")
    assert len(readings) == 40  # 2 nodes x 20 s at 1 Hz
    assert {row["sensor_id_hex"] for row in readings} == {
        node.subject for node in load_config(config).plan().nodes
    }


def test_simulate_seed_override_changes_noisy_output(tmp_path):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    outs = []
    for seed in ("5", "6"):
        out = tmp_path / f"out{seed}"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", seed]) == 0
        outs.append((out / "readings.csv").read_bytes())
    assert outs[0] != outs[1]


def test_simulate_mac_override(tmp_path):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--mac", "aloha"]) == 0
    stats = {row["counter"]: int(row["value"]) for row in read_rows(out / "stats.csv")}
    assert stats["collisions"] > 0


def test_simulate_keeps_readings_after_sequence_wrap(tmp_path):
    # A run longer than 65536 samples repeats 16-bit sequence numbers;
    # the repeat is a new reading, not a duplicate.
    config = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),), duration_s=3.0, noise_sigma_c=0.0
    )
    result, _ = run_logged(config.plan())
    first = result.readings[0]
    wrapped = first._replace(time=first.time + 65536 * TICKS_PER_S, sample_time=first.sample_time + 65536 * TICKS_PER_S)
    result = result._replace(readings=[*result.readings, wrapped])
    _write_simulation_outputs(config.plan(), result, tmp_path)
    rows = read_rows(tmp_path / "agreement.csv")
    assert [row["n"] for row in rows] == ["4"]


def test_simulate_evaluates_each_truth_once_per_instant(tmp_path, monkeypatch):
    # The benchmark's cell_tdma cell at seed 1: 50 nodes share one band
    # trace, sampled at 150 instants, and each instant is evaluated once,
    # for sensing; agreement reads the truth each reading carries.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    config = parse_config_text(workloads.scenario_text(workloads.WORKLOADS["cell_tdma"], 1))
    calls = []
    value = BandNoiseTrace.value

    def counted(self, t, seed=0):
        calls.append(t)
        return value(self, t, seed)

    monkeypatch.setattr(BandNoiseTrace, "value", counted)
    assert cmd_simulate(config, tmp_path) == 0
    assert len(calls) == 150


def test_simulate_bad_config_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "node1.serial = 1\nnode2.serial = 1\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_simulate_bad_config_writes_nothing(tmp_path, capsys):
    # Validation comes before the output directory and events.csv are
    # created, so a rejected config leaves nothing behind.
    bad = ScenarioConfig(nodes=(NodeSpec("node1", 1), NodeSpec("node2", 1)))
    out = tmp_path / "out"
    assert cmd_simulate(bad, out) == 1
    assert "unique" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["interferer,1.distance_m = 5", "interferer 1.distance_m = 5", 'node"x.serial = 0x12'],
)
def test_simulate_rejects_section_name_csv_would_quote(tmp_path, capsys, line):
    # Interferer names are events.csv cells, which are written unquoted.
    path = write_config(tmp_path, f"node1.serial = 1\n{line}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    section = line.partition(".")[0]
    assert repr(section) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "node-1", "n\u00e9", "i\n1"])
def test_validate_rejects_section_name(name):
    with pytest.raises(ValidationError, match="letters, digits and underscores"):
        ScenarioConfig(nodes=(NodeSpec("node1", 1),), interferers=(InterfererSpec(name),)).plan()
    with pytest.raises(ValidationError, match="letters, digits and underscores"):
        ScenarioConfig(nodes=(NodeSpec(name, 1),)).plan()


def _one_node_cell(duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),), duration_s=duration_s)


def _traced_peak_bytes(config: ScenarioConfig, out: Path) -> int:
    tracemalloc.start()
    try:
        assert cmd_simulate(config, out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _growth_bytes_per_sample(tmp_path: Path) -> float:
    _traced_peak_bytes(_one_node_cell(10.0), tmp_path / "warm")
    short = _traced_peak_bytes(_one_node_cell(600.0), tmp_path / "short")
    long = _traced_peak_bytes(_one_node_cell(2400.0), tmp_path / "long")
    return (long - short) / (2400 - 600)


def test_simulate_memory_does_not_hold_the_event_log(tmp_path, capsys):
    # events.csv is streamed, so only the delivered readings grow with
    # the run: about 0.4 KB per sample.  Holding the event log as well
    # costs over 2 KB per sample.
    assert _growth_bytes_per_sample(tmp_path) <= 1200


def test_simulate_memory_does_not_hold_delay_records(tmp_path, capsys):
    # A packet in flight carries only its raw count, sequence number and
    # conversion-start time, and nothing of it outlives its reading.  A
    # per-packet delay record held to the end of the run cost about
    # 0.37 KB more per sample.
    assert _growth_bytes_per_sample(tmp_path) <= 600


def _cell_of(n: int) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1) for i in range(1, n + 1)), duration_s=60.0
    )


def test_simulate_warns_when_the_frame_outlasts_the_sample_period(tmp_path, capsys):
    # At default timings 52 slots fit in the 1 s sample period and 53 do
    # not: the 53-node cell replaces frames before their slot comes.
    assert cmd_simulate(_cell_of(52), tmp_path / "fits") == 0
    assert capsys.readouterr().err == ""
    assert cmd_simulate(_cell_of(53), tmp_path / "over") == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: TDMA frame period 1.009")
    assert "sample period 1.0 s" in err
    assert "28 frames were replaced" in err
    stats = {row["counter"]: row["value"] for row in read_rows(tmp_path / "over" / "stats.csv")}
    assert stats["replaced_pending"] == "28"


def test_simulate_missing_config_exits_1(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.conf"),
                 "--out", str(tmp_path / "out")]) == 1


def test_simulate_unwritable_out_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    code = main(["simulate", "--config", str(config), "--out", str(blocker)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_report_delay_grid(tmp_path):
    out = tmp_path / "delay.csv"
    assert main(["report", "delay", "--bits", "64,256", "--distance", "1,10",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    for row in rows:
        budget = total_delay(int(row["bits"]), float(row["distance_m"]), DelayParams())
        assert float(row["total_s"]) == budget.total
        assert float(row["t7_s"]) == 0.75


def test_report_energy_grid(tmp_path):
    out = tmp_path / "energy.csv"
    assert main(["report", "energy", "--bits", "256", "--reps", "1,10",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[0]["e_tx_j"]) == pytest.approx(1.92e-3, rel=1e-6)
    assert float(rows[1]["e_tx_j"]) == pytest.approx(19.2e-3, rel=1e-6)


def test_report_schedule(tmp_path):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    out = tmp_path / "schedule.csv"
    assert main(["report", "schedule", "--config", str(config), "--out", str(out)]) == 0
    rows = read_rows(out)
    # The slots the engine runs, in exact ticks: beacon, then one 19 ms
    # slot per node.
    assert [list(row.values()) for row in rows] == [
        ["0", "28a31100000000aa", "0.002", "0.019", "0.04"],
        ["1", "28402b00000000e3", "0.021", "0.019", "0.04"],
    ]


def test_report_schedule_prints_the_slots_the_engine_runs(tmp_path):
    # interference.conf defers slots to later frames, and every slot the
    # run logs is one the report lists, to the tick.
    config = ROOT / "configs" / "interference.conf"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert main(["report", "schedule", "--config", str(config), "--out", str(tmp_path / "schedule.csv")]) == 0
    rows = read_rows(tmp_path / "schedule.csv")
    offset = {row["sensor_id_hex"]: round(Fraction(row["offset_s"]) * TICKS_PER_S) for row in rows}
    (period,) = {round(Fraction(row["frame_period_s"]) * TICKS_PER_S) for row in rows}
    slots = [(ticks_of(row["time_s"]), row["subject"]) for row in read_rows(tmp_path / "out" / "events.csv")
             if row["kind"] == "slot_start"]
    assert any(row["detail"] == "busy" for row in read_rows(tmp_path / "out" / "events.csv"))
    assert slots and all((t - offset[subject]) % period == 0 for t, subject in slots)


@pytest.mark.parametrize(
    "args",
    [
        ["energy", "--duration", "-1"],
        ["energy", "--bits", "-8"],
        ["energy", "--reps", "-1"],
        ["delay", "--distance", "-1"],
        ["delay", "--bits", "-8"],
        # Integers too large for a float.
        ["energy", "--reps", "1" + "0" * 400],
        ["energy", "--bits", "1" + "0" * 400],
        ["delay", "--bits", "1" + "0" * 400],
    ],
)
def test_report_argument_outside_model_exits_1(tmp_path, capsys, args):
    out = tmp_path / "report.csv"
    assert main(["report", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["energy", "--duration", "inf"],
        ["energy", "--duration", "nan"],
        ["delay", "--distance", "inf"],
        ["delay", "--distance", "1,nan"],
    ],
)
def test_report_non_finite_argument_is_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["report", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert not out.exists()


def test_report_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    out = blocker / "sub" / "delay.csv"  # file in the middle of the path
    assert main(["report", "delay", "--out", str(out)]) == 2


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path, TWO_NODE_TEXT)
    out = tmp_path / "out"
    # The child imports the same package as this process, installed or not.
    src = str(Path(thermnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "thermnet", "simulate",
         "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "readings.csv").is_file()

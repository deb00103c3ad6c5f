"""Scenario file parsing, validation messages, and the command line."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import thermnet
from thermnet.cli import _write_simulation_outputs, main
from thermnet.config import (
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
from thermnet.csvio import read_rows
from thermnet.delays import DelayParams, total_delay
from thermnet.energy import DevicePowerProfile
from thermnet.sim import run_scenario
from thermnet.traces import BandNoiseTrace, ConstantTrace, CsvTrace, RampTrace, SinusoidTrace

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


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.conf"
    with pytest.raises(ParseError, match="nope.conf"):
        load_config(missing)


def test_parse_error_carries_filename(tmp_path):
    path = write_config(tmp_path, "garbage\n", name="bad.conf")
    with pytest.raises(ParseError, match=r"bad\.conf:1"):
        load_config(path)


# -- validation --------------------------------------------------------


def test_duplicate_serial_rejected():
    with pytest.raises(ValidationError, match="unique"):
        parse_config_text("node1.serial = 5\nnode2.serial = 5\n")


def test_node_without_serial_rejected():
    with pytest.raises(ValidationError, match="node1.serial"):
        parse_config_text("node1.distance_m = 5\n")


def test_no_nodes_rejected():
    with pytest.raises(ValidationError, match="node"):
        parse_config_text("scenario.duration_s = 5\n")


def test_bad_mac_mode_rejected():
    with pytest.raises(ValidationError, match="mac_mode"):
        parse_config_text("node1.serial = 1\nscenario.mac_mode = csma\n")


def test_sample_period_must_cover_conversion():
    with pytest.raises(ValidationError, match="sample_period_s"):
        parse_config_text("node1.serial = 1\nscenario.sample_period_s = 0.5\n")


def test_negative_duration_rejected_zero_allowed():
    with pytest.raises(ValidationError, match="duration_s"):
        parse_config_text("node1.serial = 1\nscenario.duration_s = -1\n")
    config = parse_config_text("node1.serial = 1\nscenario.duration_s = 0\n")
    assert config.duration_s == 0.0


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
    "constant:nan", "band:30,inf", "foo:1", "ramp:1", "csv:missing.csv", "sinusoid:37,1,inf", "csv:nan_row.csv"
]


@pytest.mark.parametrize("spec", BAD_TRACE_SPECS)
def test_bad_trace_spec_exits_1_naming_key_and_line(tmp_path, capsys, spec):
    (tmp_path / "nan_row.csv").write_text("time_s,temp_c\n0.0,36.0\n10.0,nan\n")
    config = write_config(tmp_path, f"node1.serial = 1\nscenario.seed = 2\nnode1.trace = {spec}\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f":3: bad value for 'node1.trace': '{spec}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["duration_s", "sample_period_s"])
def test_validate_rejects_non_finite_timing(field, value):
    config = replace(ScenarioConfig(nodes=(NodeSpec("node1", 1),)), **{field: value})
    with pytest.raises(ValidationError, match=f"scenario.{field} must be finite"):
        config.validate()


NON_FINITE_FIELDS = [
    ("node1.distance_m", lambda c, v: replace(c, nodes=(replace(c.nodes[0], distance_m=v),))),
    ("medium.range_m", lambda c, v: replace(c, range_m=v)),
    ("sensor.noise_sigma_c", lambda c, v: replace(c, noise_sigma_c=v)),
    ("mac.guard_s", lambda c, v: replace(c, guard_s=v)),
    ("delay.air_data_rate_bps", lambda c, v: replace(c, delay_params=DelayParams(air_data_rate_bps=v))),
    ("power.supply_voltage_v", lambda c, v: replace(c, power_profile=DevicePowerProfile(supply_voltage_v=v))),
    ("interferer1.start_s", lambda c, v: replace(c, interferers=(InterfererSpec("interferer1", start_s=v),))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key, build", NON_FINITE_FIELDS, ids=[key for key, _ in NON_FINITE_FIELDS])
def test_validate_rejects_non_finite_field(key, build, value):
    config = build(ScenarioConfig(nodes=(NodeSpec("node1", 1),), duration_s=5.0), value)
    with pytest.raises(ValidationError, match=f"^{key} must be finite$"):
        config.validate()


def test_oversized_serial_rejected():
    with pytest.raises(ValidationError, match="48 bits"):
        ScenarioConfig(nodes=(NodeSpec("node1", 1 << 48),)).validate()


def test_config_help_documents_keys():
    text = config_help()
    for fragment in ("scenario.duration_s", "node<k>.serial", "interferer<k>.period_s",
                     "delay.", "power.", "alert.", "mac.family_code"):
        assert fragment in text


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
        sid.hex() for sid in load_config(config).sensor_ids()
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
    result = run_scenario(config)
    first = result.readings[0]
    wrapped = replace(first, time_s=first.time_s + 65536.0, sample_time_s=first.sample_time_s + 65536.0)
    result = replace(result, readings=[*result.readings, wrapped])
    _write_simulation_outputs(config, result, tmp_path)
    rows = read_rows(tmp_path / "agreement.csv")
    assert [row["n"] for row in rows] == ["4"]


def test_simulate_bad_config_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "node1.serial = 1\nnode2.serial = 1\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


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
    assert [row["slot"] for row in rows] == ["0", "1"]
    assert float(rows[0]["offset_s"]) == 0.002
    assert float(rows[1]["offset_s"]) == 0.002 + 0.019  # beacon + first slot
    assert float(rows[0]["frame_period_s"]) == 0.04


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

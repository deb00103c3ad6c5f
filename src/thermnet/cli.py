"""Command-line entry point.

Subcommands:
  simulate          run a scenario file, write result CSVs
  report delay      stage-by-stage latency grid over bits x distance
  report energy     transmit/receive/idle energy grid over bits x reps
  report schedule   slot layout for the nodes of a scenario

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .config import ConfigError, ScenarioConfig, config_help, load_config
from .csvio import write_csv
from .delays import DelayParams, total_delay
from .energy import DevicePowerProfile, EnergyLedger, energy_sweep
from .frames import FRAME_BITS
from .mac import build_schedule
from .monitor import EmptySeries, agreement, evaluate_alerts
from .sim import SimEvent, SimResult, run_scenario

_VERSION_TAG = "format v1"
# v2: beacon rows dropped; beacon instants are k * frame_period_s.
_EVENTS_TAG = "format v2"


def _write_simulation_outputs(config: ScenarioConfig, result: SimResult, out_dir: Path) -> None:
    write_csv(out_dir / "events.csv", f"event log, {_EVENTS_TAG}", SimEvent._fields, result.events)
    write_csv(
        out_dir / "readings.csv",
        f"delivered readings, {_VERSION_TAG}",
        ["serial_out_time_s", "sensor_id_hex", "raw", "temp_c", "sequence", "total_delay_s"],
        [
            [r.time_s, r.sensor_id.hex(), r.raw, r.temp_c, r.sequence, r.total_delay_s]
            for r in result.readings
        ],
    )
    write_csv(
        out_dir / "ledgers.csv",
        f"energy ledgers, {_VERSION_TAG}",
        ["entity", *(f.name for f in fields(EnergyLedger)), "total_j"],
        [[name, *astuple(led), led.total_j] for name, led in sorted(result.ledgers.items())],
    )

    # The engine's readings are on the roster, unique and in delivery
    # order; a sequence number repeats once it wraps at 16 bits.
    by_sensor = {sid: [] for sid in config.sensor_ids()}
    for reading in result.readings:
        by_sensor[reading.sensor_id].append(reading)
    alert_rows = []
    agreement_rows = []
    for node in config.nodes:
        sid = node.sensor_id(config.family_code)
        series = by_sensor[sid]
        for alert in evaluate_alerts(series, config.alert_rule):
            alert_rows.append([alert.kind, alert.sensor_id.hex(), alert.trigger_time_s, alert.value])
        try:
            report = agreement(series, node.trace, config.seed)
        except EmptySeries:
            continue
        agreement_rows.append([sid.hex(), report.mae_c, report.max_err_c, report.n])
    write_csv(
        out_dir / "alerts.csv",
        f"alerts, {_VERSION_TAG}",
        ["kind", "sensor_id_hex", "time_s", "value"],
        alert_rows,
    )
    write_csv(
        out_dir / "agreement.csv",
        f"measured vs truth, {_VERSION_TAG}",
        ["sensor_id_hex", "mae_c", "max_err_c", "n"],
        agreement_rows,
    )

    write_csv(
        out_dir / "stats.csv",
        f"run counters, {_VERSION_TAG}",
        ["counter", "value"],
        [[f.name, getattr(result.stats, f.name)] for f in fields(result.stats)],
    )


def cmd_simulate(config: ScenarioConfig, out_dir: str | Path) -> int:
    """Run one scenario and write its CSV outputs under out_dir."""
    try:
        result = run_scenario(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_simulation_outputs(config, result, out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"simulated {result.end_time_s} s: {len(result.readings)} readings, "
          f"{result.stats.collisions} collisions -> {out}")
    return 0


def _write_report(out: str | Path, title: str, header: list[str], rows: list[list]) -> int:
    """Write one report CSV; exit code 0, or 2 when it cannot be written."""
    try:
        write_csv(out, f"{title}, {_VERSION_TAG}", header, rows)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_report_delay(
    bits_list: Sequence[int],
    distance_list: Sequence[float],
    params: DelayParams,
    out: str | Path,
) -> int:
    rows = []
    for bits in bits_list:
        for distance in distance_list:
            b = total_delay(bits, distance, params)
            rows.append([bits, distance, *b.terms, b.total])
    header = ["bits", "distance_m"] + [f"t{i}_s" for i in range(1, 9)] + ["total_s"]
    return _write_report(out, "delay grid", header, rows)


def cmd_report_energy(
    bits_list: Sequence[int],
    reps_list: Sequence[int],
    profile: DevicePowerProfile,
    params: DelayParams,
    out: str | Path,
    duration_s: Optional[float] = None,
) -> int:
    rows = [
        [r.bits, r.repetitions, r.e_tx_j, r.e_rx_j, r.e_idle_j, r.e_total_j]
        for r in energy_sweep(bits_list, reps_list, profile, params, duration_s)
    ]
    header = ["bits", "repetitions", "e_tx_j", "e_rx_j", "e_idle_j", "e_total_j"]
    return _write_report(out, "energy grid", header, rows)


def cmd_report_schedule(config: ScenarioConfig, out: str | Path) -> int:
    schedule = build_schedule(
        config.sensor_ids(),
        FRAME_BITS,
        config.delay_params,
        guard_s=config.guard_s,
        beacon_s=config.beacon_s,
    )
    by_slot = sorted(schedule.assignments.items(), key=lambda kv: kv[1])
    rows = [
        [slot, sid.hex(), schedule.slot_offset_s(sid), schedule.slot_duration_s, schedule.frame_period_s]
        for sid, slot in by_slot
    ]
    header = ["slot", "sensor_id_hex", "offset_s", "slot_duration_s", "frame_period_s"]
    return _write_report(out, "slot schedule", header, rows)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermnet",
        description="Simulator and reports for a slotted wireless temperature sensor network.",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("--config", required=True, help="scenario file path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override scenario.seed")
    sim.add_argument("--mac", choices=["tdma", "aloha"], default=None, help="override scenario.mac_mode")

    report = sub.add_parser("report", help="closed-form model reports")
    rsub = report.add_subparsers(dest="report_kind", required=True)

    delay = rsub.add_parser("delay", help="latency grid over bits x distance")
    delay.add_argument("--bits", type=_int_list, default=[64, 128, 256, 512, 1024])
    delay.add_argument("--distance", type=_float_list, default=[1.0, 10.0, 100.0])
    delay.add_argument("--out", required=True)

    energy = rsub.add_parser("energy", help="energy grid over bits x repetitions")
    energy.add_argument("--bits", type=_int_list, default=[64, 128, 256, 512, 1024])
    energy.add_argument("--reps", type=_int_list, default=[1, 10, 100])
    energy.add_argument("--duration", type=float, default=None, help="fixed wall-clock span for the idle column")
    energy.add_argument("--out", required=True)

    sched = rsub.add_parser("schedule", help="slot layout for a scenario's nodes")
    sched.add_argument("--config", required=True)
    sched.add_argument("--out", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = load_config(args.config)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.mac is not None:
                config = replace(config, mac_mode=args.mac)
            return cmd_simulate(config, args.out)
        if args.command == "report":
            if args.report_kind == "delay":
                return cmd_report_delay(args.bits, args.distance, DelayParams(), args.out)
            if args.report_kind == "energy":
                return cmd_report_energy(
                    args.bits, args.reps, DevicePowerProfile(), DelayParams(), args.out, args.duration
                )
            if args.report_kind == "schedule":
                return cmd_report_schedule(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())

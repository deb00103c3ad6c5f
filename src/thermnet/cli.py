"""Command-line entry point.

Subcommands:
  simulate          run a scenario file, write result CSVs
  report delay      stage-by-stage latency grid over bits x distance
  report energy     transmit/receive/idle energy grid over bits x reps
  report schedule   slot layout for the nodes of a scenario

Exit codes: 0 success, 1 configuration error or a report argument outside
the model (such as a negative distance), 2 I/O error or bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import TDMA, ConfigError, RunPlan, ScenarioConfig, config_help, load_config
from .csvio import TICKS_PER_S, open_csv, stamp, write_csv
from .delays import DelayParams, total_delay
from .energy import DevicePowerProfile, EnergyLedger, energy_sweep
from .monitor import agreement, evaluate_alerts
from .sim import EVENT_COLUMNS, SimResult, SimStats, run_scenario
from .traces import finite_float

_VERSION_TAG = "format v1"  # stats.csv and the delay and energy reports
# v2: the slots are the run plan's whole ticks, the ones the engine runs.
_SCHEDULE_TAG = "format v2"
# v2: times are exact stamps of whole picoseconds, so ledger joules come
# from whole-tick spans, and sensor noise is keyed by the node's serial.
_RUN_TAG = "format v2"
# v3: the delay column is each reading's own, serial out less conversion start.
_READINGS_TAG = "format v3"
# v2: beacon rows dropped; beacon instants are k * frame_period_s.
# v3: a slot's listen-before-send verdict is its slot_start detail.
# v4: times are exact stamps of whole picoseconds.
_EVENTS_TAG = "format v4"


def _write_simulation_outputs(plan: RunPlan, result: SimResult, out_dir: Path) -> None:
    """Write every simulate CSV but ``events.csv``, which the run streams."""
    hex_of = {node.sensor_id: node.subject for node in plan.nodes}
    write_csv(
        out_dir / "readings.csv",
        f"delivered readings, {_READINGS_TAG}",
        ["serial_out_time_s", "sensor_id_hex", "raw", "temp_c", "sequence", "total_delay_s"],
        [(stamp(r.time), hex_of[r.sensor_id], r.raw, r.temp_c, r.sequence, stamp(r.time - r.sample_time))
         for r in result.readings],
    )
    write_csv(
        out_dir / "ledgers.csv",
        f"energy ledgers, {_RUN_TAG}",
        ["entity", *EnergyLedger._fields, "total_j"],
        [[name, *led, led.total_j] for name, led in sorted(result.ledgers.items())],
    )

    # Each frame carries its own node's id, and the engine delivers in
    # time order, so one pass groups each sensor's series in time order.
    series_of = {node.sensor_id: [] for node in plan.nodes}
    for reading in result.readings:
        series_of[reading.sensor_id].append(reading)
    alert_rows = []
    agreement_rows = []
    for node in plan.nodes:
        series = series_of[node.sensor_id]
        for alert in evaluate_alerts(series, plan.config.alert_rule):
            alert_rows.append([alert.kind, node.subject, stamp(alert.trigger_time), alert.value])
        if series:
            report = agreement(series)
            agreement_rows.append([node.subject, report.mae_c, report.max_err_c, report.n])
    write_csv(
        out_dir / "alerts.csv",
        f"alerts, {_RUN_TAG}",
        ["kind", "sensor_id_hex", "time_s", "value"],
        alert_rows,
    )
    write_csv(
        out_dir / "agreement.csv",
        f"measured vs truth, {_RUN_TAG}",
        ["sensor_id_hex", "mae_c", "max_err_c", "n"],
        agreement_rows,
    )

    write_csv(
        out_dir / "stats.csv",
        f"run counters, {_VERSION_TAG}",
        ["counter", "value"],
        [[name, getattr(result.stats, name)] for name in SimStats.__slots__],
    )


def cmd_simulate(config: ScenarioConfig, out_dir: str | Path) -> int:
    """Run one scenario and write its CSV outputs under out_dir.

    The config is planned, and so validated, once, before anything is
    written, so a bad one leaves no output behind; the event log is
    written to ``events.csv`` row by row while the run goes on.
    """
    try:
        plan = config.plan()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    try:
        with open_csv(out / "events.csv", f"event log, {_EVENTS_TAG}", EVENT_COLUMNS) as events:
            result = run_scenario(plan, events.write)
        _write_simulation_outputs(plan, result, out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    if plan.frame_period > plan.sample_period:
        print(f"warning: TDMA frame period {plan.frame_period / TICKS_PER_S} s exceeds the sample period "
              f"{config.sample_period_s} s; {result.stats.replaced_pending} frames were replaced "
              f"before their slot", file=sys.stderr)
    print(f"simulated {config.duration_s} s: {len(result.readings)} readings, "
          f"{result.stats.collisions} collisions -> {out}")
    return 0


def _write_report(out: str | Path, title: str, header: list[str], rows: list[list], tag: str = _VERSION_TAG) -> int:
    """Write one report CSV; exit code 0, or 2 when it cannot be written."""
    try:
        write_csv(out, f"{title}, {tag}", header, rows)
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
    """The slots the engine runs for the scenario's nodes, planned as TDMA
    whatever its MAC mode, in seconds."""
    plan = config._replace(mac_mode=TDMA).plan()
    rows = [
        [slot, node.subject, node.slot_offset / TICKS_PER_S, plan.slot / TICKS_PER_S, plan.frame_period / TICKS_PER_S]
        for slot, node in enumerate(sorted(plan.nodes, key=lambda node: node.slot_offset))
    ]
    header = ["slot", "sensor_id_hex", "offset_s", "slot_duration_s", "frame_period_s"]
    return _write_report(out, "slot schedule", header, rows, _SCHEDULE_TAG)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [finite_float(part) for part in text.split(",") if part]


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
    energy.add_argument(
        "--duration", type=finite_float, default=None, help="fixed wall-clock span for the idle column"
    )
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
                config = config._replace(seed=args.seed)
            if args.mac is not None:
                config = config._replace(mac_mode=args.mac)
            return cmd_simulate(config, args.out)
        if args.report_kind == "schedule":
            return cmd_report_schedule(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.report_kind == "delay":
            return cmd_report_delay(args.bits, args.distance, DelayParams(), args.out)
        if args.report_kind == "energy":
            return cmd_report_energy(
                args.bits, args.reps, DevicePowerProfile(), DelayParams(), args.out, args.duration
            )
    except (ValueError, OverflowError) as exc:  # outside the model: a negative distance, 10**400 bits
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())

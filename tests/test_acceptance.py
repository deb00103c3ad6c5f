"""Acceptance gate: the shipped guarantees, one check and one line each.

Every test prints `criterion NN PASS|FAIL: <summary>` straight to the
terminal (bypassing capture) before asserting, so a full run always
shows the complete scoreboard.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

from thermnet.config import ALOHA, NodeSpec, ScenarioConfig
from thermnet.delays import DelayParams, airtime, mcu_prep_delay, total_delay
from thermnet.energy import DevicePowerProfile, energy_sweep, power
from thermnet.frames import FrameError, crc8, decode_frame, encode_frame, make_sensor_id
from thermnet.monitor import agreement
from thermnet.sim import AP
from thermnet.traces import BandNoiseTrace, ConstantTrace, RampTrace
from thermnet.cli import _write_simulation_outputs, cmd_simulate

from helpers import access_point_ledger, crc8_oracle, ledger_from_events, read_rows, run_logged

PARAMS = DelayParams()
PROFILE = DevicePowerProfile()
LEDGER_FIELDS = ("transmit_j", "receive_j", "idle_j", "sensing_j", "mcu_j", "total_j")


def _verdict(capsys, number, ok, text):
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number:02d}: {text}"


def _nodes(count, trace=None, noise=0.0, **kwargs):
    specs = tuple(
        NodeSpec(f"node{k + 1}", serial=k + 1,
                 trace=trace if trace is not None else ConstantTrace(36.5),
                 distance_m=5.0 + 2.0 * k)
        for k in range(count)
    )
    return ScenarioConfig(nodes=specs, noise_sigma_c=noise, **kwargs)


def test_criterion_01_mcu_prep_delay(capsys):
    start = time.perf_counter()
    value = mcu_prep_delay(PARAMS)
    elapsed = time.perf_counter() - start
    exact = float(Fraction(316, 8_000_000))
    ok = abs(value - exact) <= 1e-12 and elapsed < 1e-3
    _verdict(capsys, 1, ok,
             f"316 clocks at 8 MHz -> {value} s (tol 1e-12, computed in {elapsed * 1e6:.1f} us)")


def test_criterion_02_frame_airtime(capsys):
    value = airtime(256, PARAMS)
    exact = float(Fraction(256, 19200))
    ok = abs(value - exact) <= 1e-12
    _verdict(capsys, 2, ok, f"256 bits at 19200 bps -> {value * 1e3:.6f} ms (tol 1e-12)")


def test_criterion_03_budget_sums_and_dominance(capsys):
    budget = total_delay(256, 10.0, PARAMS)
    bit_exact = sum(budget.terms) == budget.total
    near = abs(budget.total - 0.77699) < 1e-5
    dominant = budget.t7 > 0.9 * budget.total
    ok = bit_exact and near and dominant
    _verdict(capsys, 3, ok,
             f"terms re-sum bit-exactly={bit_exact}, total {budget.total * 1e3:.4f} ms, "
             f"conversion share {budget.t7 / budget.total:.1%}")


def test_criterion_04_scaling_in_bits_and_distance(capsys):
    bits_grid = [64, 128, 256, 512, 1024]
    totals = [total_delay(b, 10.0, PARAMS).total for b in bits_grid]
    increasing = all(a < b for a, b in zip(totals, totals[1:]))
    fit = statistics.linear_regression(bits_grid, totals)
    slope_exact = float(Fraction(1, 19200) + Fraction(1, 19200) + Fraction(1, 12_000_000))
    slope_ok = abs(fit.slope - slope_exact) <= 1e-9
    residual = max(
        abs(t - (fit.intercept + fit.slope * b)) for b, t in zip(bits_grid, totals)
    )
    affine = residual < 1e-12
    d_totals = [total_delay(256, d, PARAMS).total for d in [1.0, 10.0, 100.0, 1000.0]]
    monotone_d = all(a <= b for a, b in zip(d_totals, d_totals[1:]))
    ok = increasing and slope_ok and affine and monotone_d
    _verdict(capsys, 4, ok,
             f"strictly increasing={increasing}, slope {fit.slope:.9e} vs {slope_exact:.9e} "
             f"(tol 1e-9), max affine residual {residual:.1e}, distance monotone={monotone_d}")


def test_criterion_05_energy_model(capsys):
    one = energy_sweep([256], [1], PROFILE, PARAMS)[0]
    tx_ok = abs(one.e_tx_j - 1.92e-3) <= 1e-9
    p_tx = power(PROFILE.supply_voltage_v, PROFILE.radio_i_transmit_a)
    p_rx = power(PROFILE.supply_voltage_v, PROFILE.radio_i_receive_a)
    rx_gt_tx = p_rx > p_tx

    bits_grid, reps_grid = [64, 128, 256, 512, 1024], [1, 10, 100]
    rows = {
        (r.bits, r.repetitions): r
        for r in energy_sweep(bits_grid, reps_grid, PROFILE, PARAMS)
    }
    monotone = True
    for column in ("e_tx_j", "e_rx_j", "e_idle_j", "e_total_j"):
        for reps in reps_grid:
            values = [getattr(rows[b, reps], column) for b in bits_grid]
            monotone &= all(a <= b for a, b in zip(values, values[1:]))
        for bits in bits_grid:
            values = [getattr(rows[bits, r], column) for r in reps_grid]
            monotone &= all(a <= b for a, b in zip(values, values[1:]))
    ok = tx_ok and rx_gt_tx and monotone
    _verdict(capsys, 5, ok,
             f"one 256-bit frame {one.e_tx_j * 1e3:.4f} mJ (tol 1e-9), "
             f"rx {p_rx:.3f} W > tx {p_tx:.3f} W={rx_gt_tx}, grid monotone={monotone}")


def test_criterion_06_single_node_band_run(capsys):
    config = _nodes(1, trace=BandNoiseTrace(26.0, 30.0), duration_s=60.0, seed=7)
    start = time.perf_counter()
    result, _ = run_logged(config.plan())
    elapsed = time.perf_counter() - start
    count_ok = len(result.readings) == 60
    step = 0.0625
    in_band = all(26.0 - step <= r.temp_c <= 30.0 + step for r in result.readings)
    fast = elapsed < 1.0
    ok = count_ok and in_band and fast
    _verdict(capsys, 6, ok,
             f"{len(result.readings)} readings in 60 s, band [26,30] +- one step={in_band}, "
             f"runtime {elapsed:.3f} s")


def test_criterion_07_two_node_partition(capsys, tmp_path):
    config = ScenarioConfig(
        nodes=(
            NodeSpec("node1", 1, trace=ConstantTrace(36.5), distance_m=10.0),
            NodeSpec("node2", 2, trace=ConstantTrace(30.0), distance_m=25.0),
        ),
        duration_s=60.0,
        seed=11,
        noise_sigma_c=0.0,
    )
    plan = config.plan()
    result, _ = run_logged(plan)
    # The series simulate groups from the delivered readings, read back from
    # what it writes: readings.csv by id, and agreement.csv's count per id.
    _write_simulation_outputs(plan, result, tmp_path)
    first, second = make_sensor_id(serial=1).hex(), make_sensor_id(serial=2).hex()
    temps: dict[str, set[float]] = {}
    for row in read_rows(tmp_path / "readings.csv"):
        temps.setdefault(row["sensor_id_hex"], set()).add(float(row["temp_c"]))
    counts = {row["sensor_id_hex"]: int(row["n"]) for row in read_rows(tmp_path / "agreement.csv")}
    partition = temps == {first: {36.5}, second: {30.0}}
    complete = counts == {first: 60, second: 60}
    in_roster = {r.sensor_id for r in result.readings} <= {node.sensor_id for node in plan.nodes}
    distinct = all(
        len({r.sample_time for r in result.readings if r.sensor_id == node.sensor_id}) == counts.get(node.subject)
        for node in plan.nodes
    )
    no_collisions = result.stats.collisions == 0
    ok = partition and complete and in_roster and distinct and no_collisions
    _verdict(capsys, 7, ok,
             f"series partitioned by id={partition}, 60+60 readings={complete}, ids in roster={in_roster}, "
             f"distinct sample times={distinct}, collisions={result.stats.collisions}")


def test_criterion_08_slotted_access_prevents_collisions(capsys):
    collisions = {}
    for count in (1, 2, 4, 8, 16):
        result, _ = run_logged(_nodes(count, duration_s=300.0, seed=3).plan())
        collisions[count] = result.stats.collisions
    tdma_clean = all(v == 0 for v in collisions.values())
    contended, _ = run_logged(_nodes(2, duration_s=10.0, seed=3, mac_mode=ALOHA).plan())
    aloha_collides = contended.stats.collisions >= 1
    ok = tdma_clean and aloha_collides
    _verdict(capsys, 8, ok,
             f"slotted collisions over 300 s {collisions}, "
             f"unslotted 2-node collisions in 10 s = {contended.stats.collisions}")


def test_criterion_09_ledger_matches_event_log(capsys):
    config = ScenarioConfig(
        nodes=(
            NodeSpec("node1", 1, trace=ConstantTrace(36.5), distance_m=10.0),
            NodeSpec("node2", 2, trace=ConstantTrace(30.0), distance_m=25.0),
        ),
        duration_s=30.0,
        seed=123,
        noise_sigma_c=0.1,
    )
    plan = config.plan()
    result, events = run_logged(plan)
    worst = 0.0
    for sid in (make_sensor_id(serial=1), make_sensor_id(serial=2)):
        oracle = ledger_from_events(events, plan, sid.hex())
        ledger = result.ledgers[sid.hex()]
        for name in LEDGER_FIELDS:
            worst = max(worst, abs(getattr(oracle, name) - getattr(ledger, name)))
    ap_oracle = access_point_ledger(result, plan)
    for name in LEDGER_FIELDS:
        worst = max(worst, abs(getattr(ap_oracle, name) - getattr(result.ledgers[AP], name)))
    ok = worst <= 1e-9
    _verdict(capsys, 9, ok, f"max |recomputed - ledger| = {worst:.2e} J (tol 1e-9)")


def test_criterion_10_crc_check_value_and_flip_rejection(capsys):
    check_ok = crc8(b"123456789") == 0xA1 and crc8_oracle(b"123456789") == 0xA1
    word = encode_frame(make_sensor_id(serial=0x1A), raw_temp=592, sequence=9)
    rejected = 0
    flips = 0
    for byte_index in range(2, 15):  # id, payload and frame-check bytes
        for bit in range(8):
            flips += 1
            corrupted = bytearray(word)
            corrupted[byte_index] ^= 1 << bit
            try:
                decode_frame(bytes(corrupted))
            except FrameError:
                rejected += 1
    ok = check_ok and rejected == flips
    _verdict(capsys, 10, ok,
             f"crc8('123456789')=0xA1={check_ok}, "
             f"single-bit flips rejected {rejected}/{flips}")


def test_criterion_11_accuracy_bounds(capsys):
    quiet = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, trace=ConstantTrace(36.53)),),
        duration_s=60.0, seed=2, noise_sigma_c=0.0,
    )
    result, _ = run_logged(quiet.plan())
    report0 = agreement(result.readings)
    quiet_ok = report0.mae_c <= 0.03125

    sigma = 0.1
    noisy = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, trace=ConstantTrace(37.0)),),
        duration_s=1100.0, seed=29, noise_sigma_c=sigma,
    )
    series = run_logged(noisy.plan())[0].readings
    report1 = agreement(series)
    errors = [abs(r.temp_c - 37.0) for r in series]
    stderr = statistics.pstdev(errors) / math.sqrt(len(errors))
    bound = sigma * math.sqrt(2.0 / math.pi) + 0.03125
    noisy_ok = len(series) >= 1000 and report1.mae_c <= bound + 3.0 * stderr
    ok = quiet_ok and noisy_ok
    _verdict(capsys, 11, ok,
             f"zero-noise mae {report0.mae_c:.5f} <= 0.03125={quiet_ok}; "
             f"sigma=0.1 mae {report1.mae_c:.5f} over {len(series)} samples vs "
             f"bound {bound:.5f} + 3se {3 * stderr:.5f}")


def test_criterion_12_runs_are_byte_identical(capsys, tmp_path):
    config = ScenarioConfig(
        nodes=(
            NodeSpec("node1", 1, trace=RampTrace(37.0, 2.0), distance_m=10.0),
            NodeSpec("node2", 2, trace=ConstantTrace(36.5), distance_m=25.0),
        ),
        duration_s=60.0,
        seed=5,
        noise_sigma_c=0.1,
    )
    first, second = tmp_path / "a", tmp_path / "b"
    codes = (cmd_simulate(config, first), cmd_simulate(config, second))
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("readings.csv", "alerts.csv", "events.csv")
    )
    alert_lines = len((first / "alerts.csv").read_text().splitlines()) - 2
    ok = codes == (0, 0) and identical
    _verdict(capsys, 12, ok,
             f"repeat run byte-identical={identical} "
             f"(readings, alerts, events; {alert_lines} alert rows)")

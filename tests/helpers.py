"""Shared test oracles, written independently of the package internals."""

from __future__ import annotations

import csv
import math
import struct
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from thermnet.config import RunPlan
from thermnet.csvio import TICKS_PER_S
from thermnet.energy import EnergyLedger
from thermnet.monitor import HIGH_TEMP, RAPID_RISE, Alert, AlertRule, Reading
from thermnet.sim import SimResult, run_scenario


def reflect8(value: int) -> int:
    return int(f"{value:08b}"[::-1], 2)


def crc8_oracle(data: bytes) -> int:
    """Checksum by MSB-first division with reflected bytes.

    Same CRC as the package's right-shift table (poly x^8+x^5+x^4+1,
    reflected, init 0, no final xor) but computed the opposite way
    around, so agreement between the two is a real check.
    """
    reg = 0
    for byte in data:
        reg ^= reflect8(byte)
        for _ in range(8):
            if reg & 0x80:
                reg = ((reg << 1) ^ 0x31) & 0xFF
            else:
                reg = (reg << 1) & 0xFF
    return reflect8(reg)


def read_rows(path: str | Path) -> list[dict[str, str]]:
    """Read a written CSV back as dicts, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def ticks_of(stamp: str) -> int:
    """The tick count a ``csvio.stamp`` was written from."""
    whole, point, fraction = stamp.partition(".")
    assert point and len(fraction) == 12 and (whole + fraction).isdigit(), stamp
    return int(whole) * TICKS_PER_S + int(fraction)


class SimEvent(NamedTuple):
    """One ``events.csv`` row, in column order (``sim.EVENT_COLUMNS``),
    with its time in clock ticks.

    ``seq`` is the position in the log, which is ordered by (time, seq).
    """

    time: int
    seq: int
    kind: str
    subject: str
    detail: str = ""

    @classmethod
    def from_row(cls, row: str) -> "SimEvent":
        """The event an ``EVENT_ROW`` line was formatted from."""
        stamp, seq, kind, subject, detail = row.split(",", 4)
        return cls(ticks_of(stamp), int(seq), kind, subject, detail[:-1])


def run_logged(plan: RunPlan) -> tuple[SimResult, list[SimEvent]]:
    """Run a plan, collecting its event log and parsing it back."""
    lines: list[str] = []
    result = run_scenario(plan, lines.append)
    return result, [SimEvent.from_row(line) for line in lines]


def next_slot_time(plan: RunPlan, node: int, now: int) -> int:
    """Node ``node``'s first slot start at or after tick ``now``, by
    scanning k = 0, 1, ... under ``k * frame_period + slot_offset``."""
    period, offset = plan.frame_period, plan.nodes[node].slot_offset
    k = 0
    while k * period + offset < now:
        k += 1
    return k * period + offset


def ledger_from_events(events: list[SimEvent], plan: RunPlan, subject: str) -> EnergyLedger:
    """Recompute one node's energy ledger from the event log alone.

    Walks tx_start/tx_end pairs and conversion_done events, charges
    V*i*t for each activity, and fills the rest of the run with the
    per-device idle currents.  Activity that has not completed by the
    end of the run is charged as idle, mirroring the simulator's rule.
    Times are the log's ticks and the plan's spans, summed exactly.
    """
    prof = plan.config.power_profile
    v = prof.supply_voltage_v
    end = plan.duration

    tx_time = 0
    open_tx = None
    n_conversions = 0
    n_preps = 0
    for event in events:
        if event.subject != subject:
            continue
        if event.kind == "tx_start":
            open_tx = event.time
        elif event.kind == "tx_end" and open_tx is not None:
            tx_time += event.time - open_tx
            open_tx = None
        elif event.kind == "conversion_done":
            n_conversions += 1
            if event.time + plan.prep <= end:
                n_preps += 1

    sense_time = n_conversions * plan.conversion
    prep_time = n_preps * plan.prep
    return EnergyLedger(
        transmit_j=v * prof.radio_i_transmit_a * (tx_time / TICKS_PER_S),
        sensing_j=v * prof.sensor_i_active_a * (sense_time / TICKS_PER_S),
        mcu_j=v * prof.mcu_i_active_a * (prep_time / TICKS_PER_S),
        idle_j=v
        * (
            prof.radio_i_idle_a * ((end - tx_time) / TICKS_PER_S)
            + prof.sensor_i_idle_a * ((end - sense_time) / TICKS_PER_S)
            + prof.mcu_i_idle_a * ((end - prep_time) / TICKS_PER_S)
        ),
    )


def collided_by_pairwise_scan(transmissions: list[tuple[float, float, float]], range_m: float) -> list[bool]:
    """Each (start, end, distance) transmission's collided flag, by the
    quadratic scan the medium used to run: any time overlap between two
    signals both within ``range_m`` of the access point destroys both."""
    collided = [False] * len(transmissions)
    for i, (start, end, distance) in enumerate(transmissions):
        if distance > range_m:
            continue
        for j, (other_start, other_end, other_distance) in enumerate(transmissions[:i]):
            if start < other_end and other_start < end and other_distance <= range_m:
                collided[i] = collided[j] = True
    return collided


def access_point_ledger(result: SimResult, plan: RunPlan) -> EnergyLedger:
    """The receiver listens for the whole run."""
    prof = plan.config.power_profile
    return EnergyLedger(
        receive_j=prof.supply_voltage_v * prof.radio_i_receive_a * (plan.duration / TICKS_PER_S)
    )


def evaluate_alerts_oracle(series: list[Reading], rule: AlertRule) -> list[Alert]:
    """The quadratic reference scan: each window is filtered from the whole
    prefix, against the exact window in ticks, and its slope taken in
    exact rationals.

    A rapid-rise alert fires when the exact slope is at least the rule's
    rate, and its value is that slope rounded once to a float.
    """
    rate = Fraction(rule.rise_rate_c_per_min)
    window_ticks = Fraction(rule.rise_window_s) * TICKS_PER_S
    alerts: list[Alert] = []
    high_armed = True
    rise_armed = True
    for i, reading in enumerate(series):
        if reading.temp_c >= rule.high_threshold_c:
            if high_armed:
                alerts.append(Alert(HIGH_TEMP, reading.sensor_id, reading.time, reading.temp_c))
                high_armed = False
        else:
            high_armed = True

        window = [r for r in series[: i + 1] if r.time >= reading.time - window_ticks]
        slope = _slope_c_per_min_oracle(window)
        if slope is not None and slope >= rate:
            if rise_armed:
                alerts.append(Alert(RAPID_RISE, reading.sensor_id, reading.time, rounded(slope)))
                rise_armed = False
        else:
            rise_armed = True
    return alerts


def _slope_c_per_min_oracle(window: list[Reading]) -> Optional[Fraction]:
    """Exact least-squares slope of ``raw / 16`` vs time, per minute,
    or None when the window has fewer than two distinct times."""
    times = [Fraction(r.time, TICKS_PER_S) for r in window]
    temps = [Fraction(r.raw, 16) for r in window]
    mean_t = sum(times) / len(window)
    mean_c = sum(temps) / len(window)
    sxx = sum((t - mean_t) ** 2 for t in times)
    if sxx == 0:
        return None
    sxy = sum((t - mean_t) * (c - mean_c) for t, c in zip(times, temps))
    return 60 * sxy / sxx


def rounded(value: Fraction) -> float:
    """``value`` rounded once to a float, or an infinity if it overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# -- keyed RNG, as first written ----------------------------------------
#
# The package hashes each node's constant (seed, stream, serial) prefix
# once per run and draws both Box-Muller uniforms from one hash.  These
# are the step-by-step originals, kept verbatim so that path can be
# checked against them for exact equality.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_NOISE_STREAM = 0x5E
_BAND_STREAM = 0x7B


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64_oracle(seed: int, *keys: int) -> int:
    h = _splitmix64(seed & _MASK64)
    for k in keys:
        h = _splitmix64(h ^ (k & _MASK64))
    return h


def _float_key(t: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", t))[0]


def unit_uniform_oracle(seed: int, *keys: int) -> float:
    return (mix64_oracle(seed, *keys) >> 11) * (1.0 / (1 << 53))


def gauss_oracle(seed: int, *keys: int) -> float:
    u1 = (mix64_oracle(seed, *keys, 0) + 1) * (1.0 / (1 << 64))
    u2 = unit_uniform_oracle(seed, *keys, 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def band_value_oracle(low_c: float, high_c: float, t: float, seed: int) -> float:
    """``BandNoiseTrace(low_c, high_c).value(t, seed)``."""
    u = unit_uniform_oracle(seed, _BAND_STREAM, _float_key(t))
    return low_c + (high_c - low_c) * u


def sense_band_oracle(
    low_c: float, high_c: float, t: int, seed: int, noise_sigma_c: float, serial: int
) -> int:
    """``sense_and_quantize`` of a band trace at tick t: truth at t in
    seconds plus noise keyed by seed, serial and tick, in 0.0625 degC
    counts, clamped to -55..125 degC."""
    true_c = band_value_oracle(low_c, high_c, t / TICKS_PER_S, seed)
    noise_c = 0.0
    if noise_sigma_c > 0:
        noise_c = noise_sigma_c * gauss_oracle(seed, _NOISE_STREAM, serial, t)
    counts = (true_c + noise_c) / 0.0625
    return round(min(max(counts, -880), 2000))

"""Shared test oracles, written independently of the package internals."""

from __future__ import annotations

import math
from typing import Optional

from thermnet.config import ScenarioConfig
from thermnet.delays import mcu_prep_delay
from thermnet.energy import EnergyLedger
from thermnet.monitor import HIGH_TEMP, RAPID_RISE, Alert, AlertRule, Reading
from thermnet.sim import SimResult


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


def ledger_from_events(result: SimResult, config: ScenarioConfig, subject: str) -> EnergyLedger:
    """Recompute one node's energy ledger from the event log alone.

    Walks tx_start/tx_end pairs and conversion_done events, charges
    V*i*t for each activity, and fills the rest of the run with the
    per-device idle currents.  Activity that has not completed by the
    end of the run is charged as idle, mirroring the simulator's rule.
    """
    prof = config.power_profile
    params = config.delay_params
    v = prof.supply_voltage_v
    t7 = params.sensor_conversion_s
    t1 = mcu_prep_delay(params)
    end = result.end_time_s

    tx_time = 0.0
    open_tx = None
    n_conversions = 0
    n_preps = 0
    for event in result.events:
        if event.subject != subject:
            continue
        if event.kind == "tx_start":
            open_tx = event.time_s
        elif event.kind == "tx_end" and open_tx is not None:
            tx_time += event.time_s - open_tx
            open_tx = None
        elif event.kind == "conversion_done":
            n_conversions += 1
            if event.time_s + t1 <= end:
                n_preps += 1

    sense_time = n_conversions * t7
    prep_time = n_preps * t1
    return EnergyLedger(
        transmit_j=v * prof.radio_i_transmit_a * tx_time,
        sensing_j=v * prof.sensor_i_active_a * sense_time,
        mcu_j=v * prof.mcu_i_active_a * prep_time,
        idle_j=v
        * (
            prof.radio_i_idle_a * (end - tx_time)
            + prof.sensor_i_idle_a * (end - sense_time)
            + prof.mcu_i_idle_a * (end - prep_time)
        ),
    )


def access_point_ledger(result: SimResult, config: ScenarioConfig) -> EnergyLedger:
    """The receiver listens for the whole run."""
    prof = config.power_profile
    return EnergyLedger(
        receive_j=prof.supply_voltage_v * prof.radio_i_receive_a * result.end_time_s
    )


def evaluate_alerts_oracle(series: list[Reading], rule: AlertRule) -> list[Alert]:
    """The quadratic reference scan: each window is filtered from the whole prefix.

    This is the monitor's earlier implementation, kept verbatim so the
    bisecting one can be checked against it for exact equality.
    """
    alerts: list[Alert] = []
    high_armed = True
    rise_armed = True
    for i, reading in enumerate(series):
        if reading.temp_c >= rule.high_threshold_c:
            if high_armed:
                alerts.append(Alert(HIGH_TEMP, reading.sensor_id, reading.time_s, reading.temp_c))
                high_armed = False
        else:
            high_armed = True

        window = [r for r in series[: i + 1] if r.time_s >= reading.time_s - rule.rise_window_s]
        slope = _slope_c_per_min_oracle(window)
        if slope is not None and slope >= rule.rise_rate_c_per_min:
            if rise_armed:
                alerts.append(Alert(RAPID_RISE, reading.sensor_id, reading.time_s, slope))
                rise_armed = False
        else:
            rise_armed = True
    return alerts


def _slope_c_per_min_oracle(window: list[Reading]) -> Optional[float]:
    """Least-squares slope of temp vs time, or None below two points."""
    n = len(window)
    if n < 2:
        return None
    mean_t = math.fsum(r.time_s for r in window) / n
    mean_c = math.fsum(r.temp_c for r in window) / n
    sxx = math.fsum((r.time_s - mean_t) ** 2 for r in window)
    if sxx == 0.0:
        return None
    sxy = math.fsum((r.time_s - mean_t) * (r.temp_c - mean_c) for r in window)
    return (sxy / sxx) * 60.0

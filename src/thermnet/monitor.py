"""Receiving-side software: alerting and accuracy checks.

This stands in for the monitoring software of the physical system.
``thermnet simulate`` groups the delivered readings into one time series
per ROM id, in delivery order, and on each series raises
high-temperature and rapid-rise alerts and measures each reading against
the true temperature it carries.  It writes them as CSV; its
``readings.csv`` (time, sensor id and temperature in long form) is the
feed for any charting tool.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .csvio import TICKS_PER_S
from .frames import SensorId, TEMP_LSB_C

HIGH_TEMP = "high_temp"
RAPID_RISE = "rapid_rise"


class EmptySeries(ValueError):
    """Agreement asked for on a sensor with no readings."""


class Reading(NamedTuple):
    """One delivered measurement.

    ``time`` is the delivery (serial output) instant and ``sample_time``
    the conversion-start instant the value physically refers to, both in
    whole clock ticks.  ``true_c`` is the true temperature at that instant, the
    one the sensor read before noise and quantization, so accuracy
    metrics compare against it and transport delay does not bias them.
    ``temp_c`` is always raw counts times the sensor resolution.
    """

    sensor_id: SensorId
    time: int
    raw: int
    sequence: int
    sample_time: int
    true_c: float

    @property
    def temp_c(self) -> float:
        return self.raw * TEMP_LSB_C


class AlertRule(NamedTuple):
    high_threshold_c: float = 38.0
    rise_rate_c_per_min: float = 0.5
    rise_window_s: float = 60.0

    def validate(self) -> None:
        for value in (self.high_threshold_c, self.rise_rate_c_per_min, self.rise_window_s):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("alert rule values must be finite and positive")


class Alert(NamedTuple):
    kind: str
    sensor_id: SensorId
    trigger_time: int  # in clock ticks
    value: float


class AgreementReport(NamedTuple):
    mae_c: float
    max_err_c: float
    n: int


def evaluate_alerts(series: list[Reading], rule: AlertRule) -> list[Alert]:
    """Scan a time-ordered series for threshold and slope excursions.

    Each alert kind fires once per excursion and re-arms when the value
    (temperature, or rise rate) drops back below its threshold.  The rise
    rate is the exact least-squares slope, in degC per minute, of the
    readings at or after ``time - rule.rise_window_s``, with each time in
    whole ticks and each temperature ``raw / 16``; a window whose times are
    all equal has none.  A rapid-rise alert fires when that slope is at
    least ``rule.rise_rate_c_per_min``, compared exactly, and its ``value``
    is the slope rounded once to a float (inf if it overflows).  Raises
    ValueError if the rule is invalid, or if a time is negative or below
    the one before.

    The window moves with two pointers and keeps running sums of t, t*t,
    t*raw and raw.  Times are ints, so the sums are Python ints: adding a
    reading as it enters and subtracting it as it leaves is exact, and a
    reading costs O(1) amortised.  Over n readings the slope is
    15 * TICKS_PER_S * (n sum t*raw - sum t sum raw) / (4 (n sum t*t - (sum t)**2))
    degC/min, which is compared and rounded as a ratio of ints.
    """
    rule.validate()
    prev = 0
    for reading in series:
        if not prev <= reading.time:
            raise ValueError(f"series is not time-ordered from 0 at t={reading.time!r}")
        prev = reading.time

    high = rule.high_threshold_c
    # Times are whole ticks, so one is at or after t - rise_window_s exactly
    # when it is at or after t - window, the window's floor in ticks.
    window_n, window_d = rule.rise_window_s.as_integer_ratio()
    window = window_n * TICKS_PER_S // window_d
    rate_n, rate_d = rule.rise_rate_c_per_min.as_integer_ratio()
    alerts: list[Alert] = []
    high_armed = True
    rise_armed = True
    lo = 0
    s_t = s_tt = s_tr = s_r = 0  # over the window
    for i, reading in enumerate(series):
        t, raw, temp = reading.time, reading.raw, reading.temp_c
        if temp >= high:
            if high_armed:
                alerts.append(Alert(HIGH_TEMP, reading.sensor_id, t, temp))
                high_armed = False
        else:
            high_armed = True

        s_t, s_tt, s_tr, s_r = s_t + t, s_tt + t * t, s_tr + t * raw, s_r + raw
        while series[lo].time < t - window:
            old_t, old_raw = series[lo].time, series[lo].raw
            s_t, s_tt, s_tr, s_r = s_t - old_t, s_tt - old_t * old_t, s_tr - old_t * old_raw, s_r - old_raw
            lo += 1

        # The slope is top / bottom degC/min; bottom is 0 if all times are equal.
        n = i + 1 - lo
        top = 15 * TICKS_PER_S * (n * s_tr - s_t * s_r)
        bottom = 4 * (n * s_tt - s_t * s_t)
        if bottom > 0 and top * rate_d >= bottom * rate_n:
            if rise_armed:
                try:
                    value = top / bottom
                except OverflowError:
                    value = math.inf if top > 0 else -math.inf
                alerts.append(Alert(RAPID_RISE, reading.sensor_id, t, value))
                rise_armed = False
        else:
            rise_armed = True
    return alerts


def agreement(series: list[Reading]) -> AgreementReport:
    """Mean absolute and max error of each reading against its ``true_c``,
    the truth at its conversion-start time."""
    if not series:
        raise EmptySeries("no readings to compare")
    errors = [abs(r.temp_c - r.true_c) for r in series]
    return AgreementReport(
        mae_c=math.fsum(errors) / len(errors),
        max_err_c=max(errors),
        n=len(errors),
    )

"""Receiving-side software: series storage, alerting and accuracy checks.

This replaces the visualization GUI of the physical system with
CSV-producing equivalents: per-sensor time series keyed by ROM id,
high-temperature and rapid-rise alerts, and measured-versus-truth
agreement metrics.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .csvio import read_rows, write_csv
from .frames import SensorId, TEMP_LSB_C, validate_sensor_id
from .traces import TemperatureTrace

HIGH_TEMP = "high_temp"
RAPID_RISE = "rapid_rise"


class EmptySeries(ValueError):
    """Agreement asked for on a sensor with no stored readings."""


@dataclass(frozen=True, slots=True)
class Reading:
    """One delivered measurement.

    ``time_s`` is the delivery (serial output) timestamp and
    ``sample_time_s`` the conversion-start instant the value physically
    refers to; accuracy metrics use the latter so transport delay does
    not bias them.  ``temp_c`` is always raw counts times the sensor
    resolution.
    """

    sensor_id: SensorId
    time_s: float
    raw: int
    sequence: int
    total_delay_s: float
    sample_time_s: float

    @property
    def temp_c(self) -> float:
        return self.raw * TEMP_LSB_C


@dataclass(frozen=True)
class AlertRule:
    high_threshold_c: float = 38.0
    rise_rate_c_per_min: float = 0.5
    rise_window_s: float = 60.0

    def validate(self) -> None:
        for value in (self.high_threshold_c, self.rise_rate_c_per_min, self.rise_window_s):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("alert rule values must be finite and positive")


@dataclass(frozen=True)
class Alert:
    kind: str
    sensor_id: SensorId
    trigger_time_s: float
    value: float


@dataclass(frozen=True)
class AgreementReport:
    mae_c: float
    max_err_c: float
    n: int


class ReadingStore:
    """Per-sensor reading series with duplicate and roster filtering.

    A single writer ingests; ``series`` hands out copies so readers
    never observe a partially applied insert.  Arrival order does not
    matter: readings are kept sorted by delivery time, and duplicates
    are detected on (sensor, sample_time_s).  A sensor starts at most one
    conversion per instant, so that key stays unique after the 16-bit
    sequence number wraps.
    """

    def __init__(self, roster: Optional[Iterable[SensorId]] = None):
        self.roster = set(roster) if roster is not None else None
        self._series: dict[SensorId, list[Reading]] = {}
        self._seen: dict[SensorId, set[float]] = {}
        self.duplicate_count = 0
        self.unknown_count = 0

    def ingest(self, reading: Reading) -> None:
        sid = reading.sensor_id
        if not validate_sensor_id(sid) or (self.roster is not None and sid not in self.roster):
            self.unknown_count += 1
            return
        seen = self._seen.setdefault(sid, set())
        if reading.sample_time_s in seen:
            self.duplicate_count += 1
            return
        seen.add(reading.sample_time_s)
        series = self._series.setdefault(sid, [])
        bisect.insort(series, reading, key=lambda r: (r.time_s, r.sequence))

    def ingest_all(self, readings: Iterable[Reading]) -> None:
        for reading in readings:
            self.ingest(reading)

    def sensor_ids(self) -> list[SensorId]:
        return list(self._series)

    def series(self, sensor_id: SensorId) -> list[Reading]:
        return list(self._series.get(sensor_id, []))

    def total_stored(self) -> int:
        return sum(len(s) for s in self._series.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadingStore):
            return NotImplemented
        return self._series == other._series


# The rounding unit of binary64, and the ranges in which no step of
# _slope_c_per_min leaves the normal floating-point range.
_U = 2.0**-53
_MIN_TIME_S = 2.0**-20
_MAX_TIME_S = 2.0**64
_MAX_RAW = 1 << 15


def evaluate_alerts(series: list[Reading], rule: AlertRule) -> list[Alert]:
    """Scan a time-ordered series for threshold and slope excursions.

    Each alert kind fires once per excursion and re-arms when the value
    (temperature, or fitted rise rate) drops back below its threshold.
    The rise rate is the least-squares slope, in degC per minute, that
    ``_slope_c_per_min`` returns for the readings at or after
    ``time_s - rule.rise_window_s``.  Raises ValueError if ``time_s``
    decreases.

    The window moves with two pointers and keeps exact running sums, so
    a reading costs O(1) amortised.  At the start, and each time the
    window has turned over (every reading summed at the last re-centring
    has left it), ``ref`` moves to the window's first time and the sums
    are taken afresh.  With ``q = ulp(ref)`` every window time
    ``t >= ref`` is a multiple of ``q``, so ``U = (t - ref) / q`` is an
    integer, and the sums of U, U*U, U*raw and raw are Python ints:
    adding a reading as it enters and subtracting it as it leaves is
    exact, so nothing drifts, and re-centring keeps the ints small (the
    updates of Chan, Golub & LeVeque, Am. Stat. 37(3), 1983, done
    exactly).

    Only ``slope >= rate`` reaches the output unless a rapid-rise alert
    fires, so the exact slope runs only when the running sums cannot
    certify that comparison, and when an armed rapid-rise is about to
    fire, so the written ``value`` is the exact one.  The certificate,
    with u = 2**-53, n readings in the window, t_max the window's last
    time and c_max the series' largest ``abs(temp_c)``:

    - X = sum (t - mean t)**2 and Y = sum (t - mean t)(c - mean c) are
      exact rationals of the integer sums (c = raw / 16 is exact), and
      so is the true slope b = 60 Y / X.
    - ``_slope_c_per_min`` returns B = 60 * sxy / sxx, rounded twice.
      fsum and the division by n round once each, so its means are off
      by |e| <= 3u t_max and |f| <= 3u c_max.  Each term of sxx is
      (t - mean t - e)**2 times a factor within (1 +- u)**5 (the
      subtraction squared, pow taken as accurate to 1 ulp, fsum) and all
      are >= 0; the deviations sum to 0, so the e terms add n e**2, and
      |sxx - X| <= rho X with rho = 6u + 2 n e**2 / X.  Each term of sxy
      is (t - mean t - e)(c - mean c - f) up to three roundings and fsum
      adds one; the cross terms add n e f, |c - mean c - f| <=
      2.01 c_max and, by Cauchy-Schwarz, sum |t - mean t - e| <=
      sqrt(n (X + n e**2)), so |sxy - Y| <= eta with
      eta = 6u c_max (n e + 3 sqrt(n (X + n e**2))).  Hence, for
      rho <= 1/4, |B - b| <= (|b| (3u + rho) + 61 eta / X) / (1 - rho).
    - The running slope A = float(num) / float(den) * 3.75 / q is b
      rounded four times, |A - b| <= 5u |b|, and together
      |B - A| <= M = |A| (10u + 2 rho) + 82 eta / X.
    - M is evaluated from non-negative terms in a few dozen roundings,
      so twice the computed value bounds it.  The comparison is
      certified when ``A - rate`` exceeds that in either direction;
      otherwise the exact slope decides.

    The bounds assume every rounding stays in the normal range, so the
    sums are used only where no step of ``_slope_c_per_min`` can
    overflow or underflow: window times in [2**-20, 2**64] s, raw counts
    of 16 bits, rho <= 1/8 as computed (which also keeps sxx > 0, so the
    exact slope is not None) and X > 0.  Any other window, including one
    with a NaN or infinite time, runs the exact slope.
    """
    times: list[float] = []
    for reading in series:
        if times and not reading.time_s >= times[-1]:  # also rejects NaN
            raise ValueError(f"series is not time-ordered at t={reading.time_s!r}")
        times.append(reading.time_s)
    raws = [reading.raw for reading in series]
    temps = [raw * TEMP_LSB_C for raw in raws]
    max_raw = max(map(abs, raws), default=0)
    certifiable = bool(series) and times[-1] <= _MAX_TIME_S and max_raw <= _MAX_RAW
    c_max = max_raw * TEMP_LSB_C

    high = rule.high_threshold_c
    window = rule.rise_window_s
    rate = rule.rise_rate_c_per_min
    alerts: list[Alert] = []
    high_armed = True
    rise_armed = True
    lo = 0
    turned_over_at = 0  # the window has turned over once lo reaches this
    tracking = False
    ks = [0] * len(series)  # U of each reading since the last re-centring
    for i, t in enumerate(times):
        if temps[i] >= high:
            if high_armed:
                alerts.append(Alert(HIGH_TEMP, series[i].sensor_id, t, temps[i]))
                high_armed = False
        else:
            high_armed = True

        start = t - window
        while times[lo] < start:
            if tracking:
                k, r = ks[lo], raws[lo]
                su, suu, sur, sr = su - k, suu - k * k, sur - k * r, sr - r
            lo += 1
        if lo >= turned_over_at:
            turned_over_at = i + 1
            ref = times[lo]
            tracking = certifiable and ref >= _MIN_TIME_S
            if tracking:
                q = math.ulp(ref)
                base = int(ref / q)
                su = suu = sur = sr = 0
                for j in range(lo, i):
                    k = ks[j] = int(times[j] / q) - base
                    r = raws[j]
                    su, suu, sur, sr = su + k, suu + k * k, sur + k * r, sr + r
        if tracking:
            k = ks[i] = int(t / q) - base
            r = raws[i]
            su, suu, sur, sr = su + k, suu + k * k, sur + k * r, sr + r

        n = i + 1 - lo
        rising = _certified_rise(n, su, suu, sur, sr, q, t, c_max, rate) if tracking else None
        if rising is None or (rising and rise_armed):
            slope = _slope_c_per_min(times[lo : i + 1], temps[lo : i + 1]) if n >= 2 else None
            rising = slope is not None and slope >= rate
        if rising:
            if rise_armed:
                alerts.append(Alert(RAPID_RISE, series[i].sensor_id, t, slope))
                rise_armed = False
        else:
            rise_armed = True
    return alerts


def _certified_rise(
    n: int, su: int, suu: int, sur: int, sr: int, q: float, t_max: float, c_max: float, rate: float
) -> Optional[bool]:
    """Whether ``_slope_c_per_min`` of the window is ``>= rate``, or None if
    the running sums cannot tell; ``evaluate_alerts`` derives the bound."""
    den = float(n * suu - su * su)  # n X / q**2
    if not den > 0:
        return None
    x = den * q * q / n
    e = 3 * _U * t_max
    ne2 = n * e * e
    rho = 6 * _U + 2 * ne2 / x
    if not rho <= 0.125:
        return None
    eta = 6 * _U * c_max * (n * e + 3 * math.sqrt(n * (x + ne2)))
    approx = float(n * sur - su * sr) / den * 3.75 / q
    margin = 2.0 * (abs(approx) * (10 * _U + 2 * rho) + 82 * eta / x)
    diff = approx - rate
    if diff > margin:
        return True
    if -diff > margin:
        return False
    return None


def _slope_c_per_min(times: list[float], temps: list[float]) -> Optional[float]:
    """Least-squares slope of temp vs time, or None below two points or
    when every time is the same.

    ``times`` is ordered, so its ends tell whether all are equal.  That
    test is needed: when ``fsum(times) / n`` does not round back to the
    common time, every deviation is the same ulp, sxx is tiny but not 0,
    and the quotient would be rounding noise.
    """
    n = len(times)
    if n < 2 or times[0] == times[-1]:
        return None
    mean_t = math.fsum(times) / n
    mean_c = math.fsum(temps) / n
    sxx = math.fsum((t - mean_t) ** 2 for t in times)
    if sxx == 0.0:
        return None
    sxy = math.fsum((t - mean_t) * (c - mean_c) for t, c in zip(times, temps))
    return (sxy / sxx) * 60.0


def agreement(series: list[Reading], truth: TemperatureTrace, seed: int = 0) -> AgreementReport:
    """Mean absolute and max error against the ground-truth trace.

    Truth is evaluated at each reading's conversion-start time.
    """
    if not series:
        raise EmptySeries("no readings to compare")
    errors = [abs(r.temp_c - truth.value(r.sample_time_s, seed)) for r in series]
    return AgreementReport(
        mae_c=math.fsum(errors) / len(errors),
        max_err_c=max(errors),
        n=len(errors),
    )


READING_COLUMNS = ["time_s", "sample_time_s", "raw", "temp_c", "sequence", "total_delay_s"]


def export_store(store: ReadingStore, out_dir: str | Path) -> list[Path]:
    """Write one CSV per sensor plus a wide plot-data file.

    The plot-data file has a time column and one temperature column per
    sensor, ready for external charting.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    ids = sorted(store.sensor_ids(), key=lambda s: (s.serial, s.family_code))
    for sid in ids:
        path = out / f"sensor_{sid.hex()}.csv"
        rows = [
            [r.time_s, r.sample_time_s, r.raw, r.temp_c, r.sequence, r.total_delay_s]
            for r in store.series(sid)
        ]
        write_csv(path, f"sensor {sid.hex()}", READING_COLUMNS, rows)
        written.append(path)

    merged = sorted(
        ((r, sid) for sid in ids for r in store.series(sid)),
        key=lambda pair: (pair[0].time_s, pair[1].serial, pair[0].sequence),
    )
    header = ["time_s"] + [sid.hex() for sid in ids]
    column = {sid: 1 + k for k, sid in enumerate(ids)}
    plot_rows = []
    for reading, sid in merged:
        row: list[object] = [reading.time_s] + [""] * len(ids)
        row[column[sid]] = reading.temp_c
        plot_rows.append(row)
    plot_path = out / "plot_data.csv"
    write_csv(plot_path, "plot data", header, plot_rows)
    written.append(plot_path)
    return written


def import_store(out_dir: str | Path, roster: Optional[Iterable[SensorId]] = None) -> ReadingStore:
    """Rebuild a store from the per-sensor CSVs written by export_store."""
    store = ReadingStore(roster)
    for path in sorted(Path(out_dir).glob("sensor_*.csv")):
        sid = SensorId.from_hex(path.stem.removeprefix("sensor_"))
        for row in read_rows(path):
            store.ingest(
                Reading(
                    sensor_id=sid,
                    time_s=float(row["time_s"]),
                    raw=int(row["raw"]),
                    sequence=int(row["sequence"]),
                    total_delay_s=float(row["total_delay_s"]),
                    sample_time_s=float(row["sample_time_s"]),
                )
            )
    return store

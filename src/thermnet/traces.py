"""Synthetic temperature traces driving the simulated sensors.

A trace maps (time, seed) to a ground-truth temperature in degC.  All
kinds are pure functions, so the same instant always re-evaluates to the
same value; this is what lets the monitor compare measurements against
truth after the fact.

Trace spec strings (used in config files and on the CLI):

    constant:<c>
    ramp:<start_c>,<rate_c_per_min>
    sinusoid:<mean_c>,<amplitude_c>,<period_s>[,<phase_rad>]
    band:<low_c>,<high_c>
    csv:<path>
"""

from __future__ import annotations

import bisect
import csv
import math
from pathlib import Path
from typing import NamedTuple, Union

from .rng import float_key, unit_uniform

_BAND_STREAM = 0x7B


def finite_float(text: str) -> float:
    """float() that also rejects inf and nan, which no trace or config
    key can honour."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value


class ConstantTrace(NamedTuple):
    value_c: float

    def value(self, t: float, seed: int = 0) -> float:
        return self.value_c


class RampTrace(NamedTuple):
    start_c: float
    rate_c_per_min: float

    def value(self, t: float, seed: int = 0) -> float:
        return self.start_c + self.rate_c_per_min * (t / 60.0)


class SinusoidTrace(NamedTuple):
    mean_c: float
    amplitude_c: float
    period_s: float
    phase_rad: float = 0.0

    def value(self, t: float, seed: int = 0) -> float:
        return self.mean_c + self.amplitude_c * math.sin(
            2.0 * math.pi * t / self.period_s + self.phase_rad
        )


class BandNoiseTrace(NamedTuple):
    """Uniform fluctuation between a lower and an upper band.

    The value is keyed by (seed, t) only, not by node: every band node
    of a run sees the same truth at the same instant, and only its own
    sensor noise tells the nodes' readings apart.
    """

    low_c: float
    high_c: float

    def value(self, t: float, seed: int = 0) -> float:
        u = unit_uniform(seed, _BAND_STREAM, float_key(t))
        return self.low_c + (self.high_c - self.low_c) * u


class CsvTrace(NamedTuple):
    """Piecewise-linear trace loaded from a (time_s, temp_c) CSV file."""

    times_s: tuple[float, ...]
    temps_c: tuple[float, ...]

    @classmethod
    def load(cls, path: str | Path) -> "CsvTrace":
        times: list[float] = []
        temps: list[float] = []
        with open(path, newline="", encoding="utf-8") as fh:
            rows = (row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#"))
            for i, row in enumerate(rows):
                try:
                    t, c = float(row[0]), float(row[1])
                except (IndexError, ValueError):
                    # Only the first row may be a header.
                    if i == 0:
                        continue
                    raise ValueError(f"bad trace row in {path}: {row!r}") from None
                if not (math.isfinite(t) and math.isfinite(c)):
                    raise ValueError(f"non-finite value in trace row in {path}: {row!r}")
                times.append(t)
                temps.append(c)
        if not times:
            raise ValueError(f"trace file {path} has no data rows")
        pairs = sorted(zip(times, temps))
        times = [p[0] for p in pairs]
        temps = [p[1] for p in pairs]
        return cls(tuple(times), tuple(temps))

    def value(self, t: float, seed: int = 0) -> float:
        times = self.times_s
        if t <= times[0]:
            return self.temps_c[0]
        if t >= times[-1]:
            return self.temps_c[-1]
        i = bisect.bisect_right(times, t)
        t0, t1 = times[i - 1], times[i]
        c0, c1 = self.temps_c[i - 1], self.temps_c[i]
        if t1 == t0:
            return c1
        return c0 + (c1 - c0) * (t - t0) / (t1 - t0)


TemperatureTrace = Union[ConstantTrace, RampTrace, SinusoidTrace, BandNoiseTrace, CsvTrace]


def parse_trace(spec: str, base_dir: str | Path | None = None) -> TemperatureTrace:
    """Build a trace from its spec string; see the module docstring.

    Raises ValueError for a malformed spec or a non-finite number, and
    OSError when a csv trace file cannot be read.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "constant":
            return ConstantTrace(finite_float(rest))
        if kind == "ramp":
            start, rate = (finite_float(x) for x in rest.split(","))
            return RampTrace(start, rate)
        if kind == "sinusoid":
            parts = [finite_float(x) for x in rest.split(",")]
            if len(parts) == 3:
                parts.append(0.0)
            mean, amp, period, phase = parts
            if period <= 0:
                raise ValueError("sinusoid period must be positive")
            return SinusoidTrace(mean, amp, period, phase)
        if kind == "band":
            low, high = (finite_float(x) for x in rest.split(","))
            if high < low:
                raise ValueError("band upper bound below lower bound")
            return BandNoiseTrace(low, high)
        if kind == "csv":
            path = Path(rest.strip())
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return CsvTrace.load(path)
    except ValueError as exc:
        raise ValueError(f"bad trace spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown trace kind {kind!r} in {spec!r}")

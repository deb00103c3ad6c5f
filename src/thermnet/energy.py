"""Per-state power and energy accounting for the node hardware.

Energy is power times duration and power is supply voltage times the
state current, so every figure here reduces to V * i * t with currents
taken from the device profile.  Note the radio draws more in receive
(0.036 A) than in transmit (0.016 A); that asymmetry is part of the
modeled hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .delays import DelayParams, airtime


@dataclass(frozen=True)
class DevicePowerProfile:
    """Supply voltage and per-state current draws of one node's devices."""

    supply_voltage_v: float = 9.0
    radio_i_transmit_a: float = 0.016
    radio_i_receive_a: float = 0.036
    radio_i_idle_a: float = 1e-6
    sensor_i_active_a: float = 0.009
    sensor_i_idle_a: float = 8e-9
    mcu_i_active_a: float = 0.0036
    mcu_i_idle_a: float = 0.001

    def validate(self) -> None:
        if self.supply_voltage_v <= 0:
            raise ValueError("supply_voltage_v must be positive")
        for name in (
            "radio_i_transmit_a",
            "radio_i_receive_a",
            "radio_i_idle_a",
            "sensor_i_active_a",
            "sensor_i_idle_a",
            "mcu_i_active_a",
            "mcu_i_idle_a",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if min(self.radio_i_transmit_a, self.radio_i_receive_a) < self.radio_i_idle_a:
            raise ValueError("radio active currents must be >= idle current")
        if self.sensor_i_active_a < self.sensor_i_idle_a:
            raise ValueError("sensor active current must be >= idle current")
        if self.mcu_i_active_a < self.mcu_i_idle_a:
            raise ValueError("mcu active current must be >= idle current")


def power(volts: float, amperes: float) -> float:
    """Electrical power in watts."""
    return volts * amperes


def energy(watts: float, duration_s: float) -> float:
    """Energy in joules for a constant power held over a duration."""
    if duration_s < 0:
        raise ValueError("duration_s must be >= 0")
    return watts * duration_s


@dataclass(frozen=True)
class EnergyLedger:
    """Accumulated joules of one entity, split by activity."""

    transmit_j: float = 0.0
    receive_j: float = 0.0
    idle_j: float = 0.0
    sensing_j: float = 0.0
    mcu_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.transmit_j + self.receive_j + self.idle_j + self.sensing_j + self.mcu_j


@dataclass(frozen=True)
class EnergySweepRow:
    bits: int
    repetitions: int
    e_tx_j: float
    e_rx_j: float
    e_idle_j: float

    @property
    def e_total_j(self) -> float:
        return self.e_tx_j + self.e_rx_j + self.e_idle_j


def energy_sweep(
    bits_list: Sequence[int],
    repetitions_list: Sequence[int],
    profile: DevicePowerProfile,
    delay_params: DelayParams,
    duration_s: float | None = None,
) -> list[EnergySweepRow]:
    """Transmit/receive/idle energy over a (bits x repetitions) grid.

    Each row covers ``repetitions`` frames of ``bits`` bits.  Transmit
    and receive energy scale with total airtime.  Idle energy is the
    radio's idle-current floor over the whole experiment: the explicit
    wall-clock ``duration_s`` if given (then identical for every row),
    otherwise the row's own airtime span.
    """
    if not bits_list or not repetitions_list:
        raise ValueError("bits_list and repetitions_list must be non-empty")
    v = profile.supply_voltage_v
    rows = []
    for bits in bits_list:
        for reps in repetitions_list:
            if reps < 0:
                raise ValueError("repetitions must be >= 0")
            on_air = reps * airtime(bits, delay_params)
            span = duration_s if duration_s is not None else on_air
            rows.append(
                EnergySweepRow(
                    bits=bits,
                    repetitions=reps,
                    e_tx_j=energy(power(v, profile.radio_i_transmit_a), on_air),
                    e_rx_j=energy(power(v, profile.radio_i_receive_a), on_air),
                    e_idle_j=energy(power(v, profile.radio_i_idle_a), span),
                )
            )
    return rows

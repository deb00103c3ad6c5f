"""Closed-form end-to-end latency budget for one packet.

The path from a finished temperature conversion to the byte arriving at
the monitoring PC decomposes into eight terms:

    t1  microcontroller packet-preparation time (instruction clocks / f)
    t2  radio mode-switch on the sending node
    t3  physical propagation over the air
    t4  on-air serialization (bits / air data rate)
    t5  radio mode-switch on the access-point side
    t6  serial transfer through the RS232-to-USB converter
    t7  sensor analog-to-digital conversion time
    t8  USB wire transfer

All times are SI seconds in double precision.  The stored total is the
left-to-right sum of the eight terms, so re-summing them reproduces it
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DelayParams:
    """Device and link configuration feeding the delay terms."""

    mcu_clock_hz: float = 8_000_000.0
    mac_instruction_clocks: int = 316
    radio_switch_delay_s: float = 130e-6
    air_data_rate_bps: float = 19_200.0
    serial_rate_bps: float = 19_200.0
    usb_rate_bps: float = 12_000_000.0
    sensor_conversion_s: float = 0.750
    propagation_speed_mps: float = 2.998e8

    def validate(self) -> None:
        for name in (
            "mcu_clock_hz",
            "radio_switch_delay_s",
            "air_data_rate_bps",
            "serial_rate_bps",
            "usb_rate_bps",
            "sensor_conversion_s",
            "propagation_speed_mps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mac_instruction_clocks < 0:
            raise ValueError("mac_instruction_clocks must be >= 0")


@dataclass(frozen=True)
class DelayBudget:
    """The eight delay terms of one packet and their sum, in seconds."""

    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float
    t7: float
    t8: float
    total: float

    @property
    def terms(self) -> tuple[float, ...]:
        return (self.t1, self.t2, self.t3, self.t4, self.t5, self.t6, self.t7, self.t8)


def mcu_prep_delay(params: DelayParams) -> float:
    """t1: instruction clocks divided by the MCU clock frequency."""
    return params.mac_instruction_clocks / params.mcu_clock_hz


def airtime(bits: int, params: DelayParams) -> float:
    """t4: on-air serialization time for ``bits`` at the air data rate."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    return bits / params.air_data_rate_bps


def propagation_delay(distance_m: float, params: DelayParams) -> float:
    """t3: distance over propagation speed."""
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    return distance_m / params.propagation_speed_mps


def serial_delay(bits: int, params: DelayParams) -> float:
    """t6: serial transfer time through the RS232-to-USB converter."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    return bits / params.serial_rate_bps


def usb_delay(bits: int, params: DelayParams) -> float:
    """t8: USB wire transfer time."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    return bits / params.usb_rate_bps


def total_delay(bits: int, distance_m: float, params: DelayParams) -> DelayBudget:
    """Full budget for one packet of ``bits`` sent over ``distance_m``."""
    t1 = mcu_prep_delay(params)
    t2 = params.radio_switch_delay_s
    t3 = propagation_delay(distance_m, params)
    t4 = airtime(bits, params)
    t5 = params.radio_switch_delay_s
    t6 = serial_delay(bits, params)
    t7 = params.sensor_conversion_s
    t8 = usb_delay(bits, params)
    total = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    return DelayBudget(t1, t2, t3, t4, t5, t6, t7, t8, total)

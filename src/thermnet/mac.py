"""TDMA slot rule and slot arithmetic for the sensor nodes.

Time is divided into repeating frames: one beacon window followed by one
dedicated slot per node, in ascending serial order.  Frame k starts at
``k * frame_period`` and a node's own slot in it at
``k * frame_period + slot_offset``; the model has no clock drift, so
every slot instant follows from the schedule alone.
``ScenarioConfig.plan`` lays the schedule out once, in whole clock
ticks, and the listen-before-send loop that uses these slots runs in the
simulation engine.
"""

from __future__ import annotations

from .csvio import TICKS_PER_S

SLOT_GRANULARITY = TICKS_PER_S // 1000  # slots are whole milliseconds
DEFAULT_GUARD_S = 0.005
DEFAULT_BEACON_S = 0.002


def slot_length(airtime: int, switch: int, guard: int) -> int:
    """A slot in ticks: the frame airtime plus both radio mode switches
    plus the guard margin, rounded up to whole milliseconds, so correctly
    synchronized transmissions can never overlap."""
    return -(-(airtime + 2 * switch + guard) // SLOT_GRANULARITY) * SLOT_GRANULARITY


def next_instant_index(period: int, offset: int, t: int) -> int:
    """Least k >= 0 with ``k * period + offset >= t``, all in whole ticks:
    one exact ceiling division."""
    return max(-((offset - t) // period), 0)

"""TDMA slot schedule and slot arithmetic for the sensor nodes.

Time is divided into repeating frames: one beacon window followed by one
dedicated slot per node.  Frame k starts at ``k * frame_period_s`` and a
node's own slot in it at ``k * frame_period_s + slot_offset_s``; the
model has no clock drift, so every slot instant follows from the
schedule alone.  The run plan holds both spans in whole clock ticks, and
the listen-before-send loop that uses these slots runs in the simulation
engine.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .delays import DelayParams, airtime
from .frames import SensorId

SLOT_GRANULARITY_S = 0.001
DEFAULT_GUARD_S = 0.005
DEFAULT_BEACON_S = 0.002


class DuplicateNode(ValueError):
    """The same sensor id appeared twice in a schedule request."""


class SlotSchedule(NamedTuple):
    """Slot assignment for one cell: frame = beacon + n equal slots."""

    beacon_slot_s: float
    slot_duration_s: float
    assignments: dict[SensorId, int]
    frame_period_s: float  # beacon_slot_s + len(assignments) * slot_duration_s

    def slot_offset_s(self, node_id: SensorId) -> float:
        """Offset of a node's slot start from the frame start."""
        return self.beacon_slot_s + self.assignments[node_id] * self.slot_duration_s


def build_schedule(
    node_ids: list[SensorId],
    frame_bits: int,
    delay_params: DelayParams,
    guard_s: float = DEFAULT_GUARD_S,
    beacon_s: float = DEFAULT_BEACON_S,
) -> SlotSchedule:
    """Assign slots in ascending serial order, one per node.

    The slot length covers the frame airtime plus both radio mode
    switches plus the guard margin, rounded up to 1 ms granularity, so
    correctly synchronized transmissions can never overlap.  A slot too
    long to count in milliseconds is infinite, for the caller to reject.
    """
    if not node_ids:
        raise ValueError("node_ids must be non-empty")
    if len(set(node_ids)) != len(node_ids):
        raise DuplicateNode("duplicate sensor id in schedule request")
    raw = airtime(frame_bits, delay_params) + 2 * delay_params.radio_switch_delay_s + guard_s
    slot_ms = raw / SLOT_GRANULARITY_S - 1e-9
    slot_duration = math.ceil(slot_ms) * SLOT_GRANULARITY_S if slot_ms < math.inf else math.inf
    ordered = sorted(node_ids, key=lambda nid: (nid.serial, nid.family_code))
    return SlotSchedule(
        beacon_slot_s=beacon_s,
        slot_duration_s=slot_duration,
        assignments={nid: i for i, nid in enumerate(ordered)},
        frame_period_s=beacon_s + len(ordered) * slot_duration,
    )


def next_instant_index(period: int, offset: int, t: int) -> int:
    """Least k >= 0 with ``k * period + offset >= t``, all in whole ticks:
    one exact ceiling division."""
    return max(-((offset - t) // period), 0)

"""TDMA slot schedule and slot arithmetic for the sensor nodes.

Time is divided into repeating frames: one beacon window followed by one
dedicated slot per node.  Frame k starts at ``k * frame_period_s`` and a
node's own slot in it at ``k * frame_period_s + slot_offset_s``; the
model has no clock drift, so every slot instant follows from the
schedule alone.  The listen-before-send loop that uses these slots runs
in the simulation engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .delays import DelayParams, airtime
from .frames import SensorId

SLOT_GRANULARITY_S = 0.001
DEFAULT_GUARD_S = 0.005
DEFAULT_BEACON_S = 0.002


class DuplicateNode(ValueError):
    """The same sensor id appeared twice in a schedule request."""


@dataclass(frozen=True)
class SlotSchedule:
    """Slot assignment for one cell: frame = beacon + n equal slots."""

    beacon_slot_s: float
    slot_duration_s: float
    guard_s: float
    assignments: dict[SensorId, int]

    @property
    def n_slots(self) -> int:
        return len(self.assignments)

    @property
    def frame_period_s(self) -> float:
        return self.beacon_slot_s + self.n_slots * self.slot_duration_s

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
    correctly synchronized transmissions can never overlap.
    """
    if not node_ids:
        raise ValueError("node_ids must be non-empty")
    if len(set(node_ids)) != len(node_ids):
        raise DuplicateNode("duplicate sensor id in schedule request")
    raw = airtime(frame_bits, delay_params) + 2 * delay_params.radio_switch_delay_s + guard_s
    slot_ms = math.ceil(raw / SLOT_GRANULARITY_S - 1e-9)
    slot_duration = slot_ms * SLOT_GRANULARITY_S
    ordered = sorted(node_ids, key=lambda nid: (nid.serial, nid.family_code))
    return SlotSchedule(
        beacon_slot_s=beacon_s,
        slot_duration_s=slot_duration,
        guard_s=guard_s,
        assignments={nid: i for i, nid in enumerate(ordered)},
    )


def slot_owner(schedule: SlotSchedule, t: float) -> Optional[SensorId]:
    """Node owning the slot containing time ``t``, or None in the beacon."""
    if t < 0:
        raise ValueError("t must be >= 0")
    pos = t % schedule.frame_period_s
    if pos < schedule.beacon_slot_s:
        return None
    index = int((pos - schedule.beacon_slot_s) // schedule.slot_duration_s)
    if index >= schedule.n_slots:
        return None
    for node_id, slot in schedule.assignments.items():
        if slot == index:
            return node_id
    return None


def next_slot_index(schedule: SlotSchedule, node_id: SensorId, now: float) -> int:
    """Index k of the first frame whose slot for the node starts at or after ``now``."""
    k = math.ceil((now - schedule.slot_offset_s(node_id)) / schedule.frame_period_s)
    return max(k, 0)


def next_slot_time(schedule: SlotSchedule, node_id: SensorId, now: float) -> float:
    """Earliest start >= ``now`` of the node's slot."""
    k = next_slot_index(schedule, node_id, now)
    return k * schedule.frame_period_s + schedule.slot_offset_s(node_id)

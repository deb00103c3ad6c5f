"""Slotted access layer tests.

Slot layout values are recomputed by hand from the airtime and guard
numbers; next-slot arithmetic, in whole ticks, is checked against a
brute force scan so the modular arithmetic cannot hide an off-by-one.  The
listen-before-send loop is checked on the event log of whole runs.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, strategies as st

from helpers import next_slot_time, run_logged
from thermnet.config import ALOHA, InterfererSpec, NodeSpec, ScenarioConfig
from thermnet.csvio import TICKS_PER_S
from thermnet.frames import make_sensor_id
from thermnet.mac import next_instant_index, slot_length
from thermnet.traces import ConstantTrace

MS = TICKS_PER_S // 1000


def plan_of(*serials, **overrides):
    """The plan of a TDMA cell of nodes with these serials, in this order."""
    return ScenarioConfig(nodes=tuple(NodeSpec(f"node{i}", s) for i, s in enumerate(serials, 1)), **overrides).plan()


def test_slot_duration_rounds_up_to_whole_millisecond():
    # airtime 13.33 ms + two 0.13 ms switches + 5 ms guard = 18.59 ms.
    plan = plan_of(1)
    assert plan.airtime + 2 * plan.switch + 5 * MS == 18_593_333_333
    assert plan.slot == 19 * MS
    # A length already on a whole millisecond is not rounded up; one tick
    # more is.
    assert slot_length(19 * MS - 2, 1, 0) == 19 * MS
    assert slot_length(19 * MS - 2, 1, 1) == 20 * MS


def test_single_node_frame_period():
    plan = plan_of(1)
    assert plan.frame_period == 21 * MS
    assert [node.slot_offset for node in plan.nodes] == [2 * MS]


def test_two_node_frame_period_and_offsets():
    plan = plan_of(7, 3)
    assert plan.frame_period == 40 * MS
    # Ascending serial order decides the slot order: beacon, then serial
    # 3's slot, then serial 7's.
    assert [node.slot_offset for node in plan.nodes] == [21 * MS, 2 * MS]


def test_assignment_is_input_order_invariant():
    a, b = plan_of(5, 9, 2), plan_of(9, 2, 5)
    assert a.frame_period == b.frame_period
    assert {n.spec.serial: n.slot_offset for n in a.nodes} == {n.spec.serial: n.slot_offset for n in b.nodes}


def test_larger_guard_means_longer_slots():
    assert plan_of(1, guard_s=0.010).slot > plan_of(1, guard_s=0.001).slot


def test_aloha_has_no_slots():
    plan = plan_of(1, 2, mac_mode=ALOHA)
    assert (plan.slot, plan.frame_period) == (0, 0)
    assert [node.slot_offset for node in plan.nodes] == [0, 0]


@given(st.integers(min_value=0, max_value=5 * TICKS_PER_S))
def test_next_slot_time_against_scan(now):
    plan = ScenarioConfig(nodes=(NodeSpec("node1", 2), NodeSpec("node2", 6))).plan()
    period = plan.frame_period
    for i, node in enumerate(plan.nodes):
        k = next_instant_index(period, node.slot_offset, now)
        got = k * period + node.slot_offset
        assert got == next_slot_time(plan, i, now)
        assert got >= now
        assert k == 0 or (k - 1) * period + node.slot_offset < now


@st.composite
def _period_offset_now(draw):
    """A frame period and a slot offset in it, in ticks, and a tick that
    is often within two ticks of one of that slot's starts."""
    period = draw(st.integers(min_value=1, max_value=10**15))
    offset = draw(st.integers(min_value=0, max_value=period - 1))
    if draw(st.booleans()):
        return period, offset, draw(st.integers(min_value=0, max_value=10**24))
    k = draw(st.integers(min_value=0, max_value=10**9))
    return period, offset, max(k * period + offset + draw(st.integers(min_value=-2, max_value=2)), 0)


_EIGHT = ScenarioConfig(nodes=tuple(NodeSpec(f"node{i}", i) for i in range(1, 9))).plan()


# Serial 6 of the default eight-node cell, at its slot 179,693 and a tick
# either side: under a float clock, the quotient's ceiling gave the slot
# one ulp before now.
@given(_period_offset_now())
@example((_EIGHT.frame_period, _EIGHT.nodes[5].slot_offset, 27672819000000000 + 1))
@example((_EIGHT.frame_period, _EIGHT.nodes[5].slot_offset, 27672819000000000))
@example((_EIGHT.frame_period, _EIGHT.nodes[5].slot_offset, 27672819000000000 - 1))
def test_next_slot_index_is_least_slot_at_or_after_now(case):
    period, offset, now = case
    k = next_instant_index(period, offset, now)
    assert k >= 0
    assert k * period + offset >= now
    assert k == 0 or (k - 1) * period + offset < now


# -- the slotted access loop, on whole runs -----------------------------


def _one_node(*interferers, duration_s=4.0):
    return ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0), distance_m=10.0),),
        duration_s=duration_s,
        noise_sigma_c=0.0,
        interferers=interferers,
    )


# Bursts of 0.98 s from 0.75 s and 2.75 s keep the channel busy from the
# moment frames 0 and 2 are ready until just before frames 1 and 3 are.
HELD_BY_BURSTS = InterfererSpec("interferer1", distance_m=5.0, period_s=2.0, start_s=0.75, bits=18900)


def _node_events(events, kind):
    subject = make_sensor_id(serial=1).hex()
    return [e for e in events if e.kind == kind and e.subject == subject]


def test_full_slot_cycle_free_channel():
    plan = _one_node(duration_s=3.0).plan()
    _, events = run_logged(plan)
    ready = [e.time + plan.prep for e in _node_events(events, "conversion_done")]
    slots = [e.time for e in _node_events(events, "slot_start")]
    # Each frame waits for the node's next slot, finds the channel free
    # and goes out one radio switch later.
    assert slots == [next_slot_time(plan, 0, t) for t in ready]
    assert [e.detail for e in _node_events(events, "slot_start")] == ["free"] * len(ready)
    starts = [e.time for e in _node_events(events, "tx_start")]
    assert starts == [t + plan.switch for t in slots]


def test_busy_channel_defers_to_next_frame():
    plan = _one_node(HELD_BY_BURSTS).plan()
    result, events = run_logged(plan)
    period, offset = plan.frame_period, plan.nodes[0].slot_offset
    slots = [e.time for e in _node_events(events, "slot_start")]
    busy = {e.time for e in _node_events(events, "slot_start") if e.detail == "busy"}
    # Every slot instant is k * period + offset exactly, and a busy slot
    # k is followed by slot k + 1, however many times in a row.
    frame_of = {t: (t - offset) // period for t in slots}
    assert all(t == k * period + offset for t, k in frame_of.items())
    for t, after in zip(slots, slots[1:]):
        if t in busy:
            assert frame_of[after] == frame_of[t] + 1
    assert len(busy) == result.stats.deferrals == 94


def test_no_pending_frame_terminates():
    for config in (_one_node(duration_s=3.0), _one_node(HELD_BY_BURSTS)):
        result, events = run_logged(config.plan())
        # A slot is used only for a pending frame: it either defers it or
        # sends it, and after the last frame the node stays quiet.
        assert len(_node_events(events, "slot_start")) == result.stats.deferrals + result.stats.transmissions
        assert result.stats.transmissions == result.stats.frames_queued


def test_slot_start_row_carries_its_verdict():
    # One row per slot decision: the listen-before-send verdict is the
    # slot_start detail, with no separate RSSI row.
    result, events = run_logged(_one_node(HELD_BY_BURSTS).plan())
    assert not any(e.kind == "rssi_sample" for e in events)
    verdicts = [e.detail for e in events if e.kind == "slot_start"]
    assert set(verdicts) == {"busy", "free"}
    assert verdicts.count("busy") == result.stats.deferrals
    assert verdicts.count("free") == result.stats.transmissions


def test_frame_ready_during_own_transmission_goes_in_next_slot():
    plan = _one_node(HELD_BY_BURSTS).plan()
    result, events = run_logged(plan)
    starts = [e.time for e in _node_events(events, "tx_start")]
    ends = [e.time for e in _node_events(events, "tx_end")]
    ready = [e.time + plan.prep for e in _node_events(events, "conversion_done")]
    assert starts[0] < ready[1] < ends[0]
    assert starts[1] == next_slot_time(plan, 0, ready[1]) + plan.switch
    assert result.stats.transmissions == 4
    assert [r.sequence for r in result.readings] == [0, 1, 2, 3]


def test_slot_starts_never_precede_their_frame():
    # Under a float clock, the quotient's ceiling alone put node 1's 79th
    # slot at 728.1219999999998, one ulp before its frame was ready at 728.122.
    config = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)), NodeSpec("node2", 2, ConstantTrace(37.0))),
        duration_s=740.0,
        sample_period_s=9.325281544871794,
        noise_sigma_c=0.0,
        beacon_s=0.044,
    )
    plan = config.plan()
    _, events = run_logged(plan)
    for serial in (1, 2):
        subject = make_sensor_id(serial=serial).hex()
        own = [e for e in events if e.subject == subject]
        ready = [e.time + plan.prep for e in own if e.kind == "conversion_done"]
        slots = [e.time for e in own if e.kind == "slot_start"]
        assert len(slots) == len(ready) == 80
        assert all(slot >= t for slot, t in zip(slots, ready))


@given(
    st.sets(st.integers(min_value=0, max_value=(1 << 48) - 1), min_size=1, max_size=16),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_slots_never_overlap(serials, guard_s, beacon_s):
    plan = plan_of(*serials, guard_s=guard_s, beacon_s=beacon_s)
    beacon, guard = round(Fraction(beacon_s) * TICKS_PER_S), round(Fraction(guard_s) * TICKS_PER_S)
    # The shortest whole number of milliseconds that holds the frame,
    # both radio switches and the guard.
    assert plan.slot % MS == 0
    assert plan.slot - MS < plan.airtime + 2 * plan.switch + guard <= plan.slot
    offsets = sorted(node.slot_offset for node in plan.nodes)
    assert offsets[0] == beacon
    for a, b in zip(offsets, offsets[1:]):
        # Next slot starts after the previous transmission plus guard.
        assert b - a == plan.slot
    assert offsets[-1] + plan.slot == plan.frame_period

"""Deterministic discrete-event simulation of the sensor cell.

Nodes sample their temperature trace, frame the reading, and contend
for the shared radio under either the slotted (beacon-synchronized)
MAC or a send-on-ready mode with no arbitration.  The access point
receives, decodes and forwards to the serial side.  Sampling instants
``k * sample_period`` and beacon instants ``k * frame_period`` are
schedule arithmetic: the run loop senses conversion k of every node in
one step, before any queued event at that instant, and beacons are
neither queued nor logged, only counted.  Each distinct trace is
evaluated once per instant, however many nodes read it.  Every other
action is a handler call on one queue ordered by (time, insertion
sequence), so a run is a pure function of the scenario config and seed.
Time is an int count of clock ticks (``csvio.TICKS_PER_S`` to the second),
and every span is a whole number of them, read from the ``RunPlan``, so
sums and comparisons of times are exact.

Aligned nodes move through a stage together, as one queue entry per
cohort.  When one handler run would push the same follow-up handler at
one time for several nodes in a row, it pushes one entry carrying all of
them, and the follow-up loops over them in node order.  Those entries
would hold consecutive sequence numbers at one time, so nothing could
sort between them, and whatever they push still sorts after all of them:
the cohort runs exactly as they would.  An instant's conversions finish
as one cohort and are framed as one; under send-on-ready its frames go
on the air as one and end together, at one ``now + airtime``.  A TDMA
slot start and an interferer burst are cohorts of one, and arrivals at
the access point stay one entry per frame, since each node has its own
propagation delay.

Each logged event is formatted once, as its finished ``events.csv``
line (``EVENT_ROW``), and its time is formatted once per distinct time:
a ``csvio.stamp`` is reused while the time equals the last logged one.
The lines go to the caller's sink as they are written; ``thermnet
simulate`` passes the file's ``write``, so the log does not stay in
memory for the run.  Delivered readings do.

Every delay term is read from the ``RunPlan``.  A packet in flight
carries only its raw count, the true temperature it was sensed from,
its sequence number and its conversion-start time; its reading's
``true_c`` is that temperature, so nothing evaluates a truth again
after sensing.
The packet is encoded into its 256-bit word only where it is decoded,
at the access point, for a frame that arrived unoverlapped.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, NamedTuple, Optional, Sequence

from .config import NodePlan, RunPlan
from .csvio import TICKS_PER_S, stamp
from .energy import EnergyLedger, energy, power
from .frames import Frame, FrameError, TEMP_LSB_C, decode_frame, encode_frame
from .mac import next_instant_index
from .monitor import Reading
from .rng import gauss
from .traces import TemperatureTrace

AP = "ap"

CONVERSION_DONE = "conversion_done"
SLOT_START = "slot_start"
TX_START = "tx_start"
TX_END = "tx_end"
RX_DELIVER = "rx_deliver"
RX_COLLISION = "rx_collision"
SERIAL_OUT = "serial_out"

# A signal's fate at the access point, as ``Medium.finish`` returns it.
OUT_OF_RANGE, COLLIDED, RECEIVED = "out_of_range", "collided", "received"

_NOISE_STREAM = 0x5E

# The device's measuring range, -55 to +125 degC, in counts.
MIN_COUNTS = round(-55.0 / TEMP_LSB_C)
MAX_COUNTS = round(125.0 / TEMP_LSB_C)


# The events.csv columns.  ``seq`` is a row's position in the log, which
# is ordered by (time_s, seq).  The time is written as its stamp, seconds.
EVENT_COLUMNS = ("time_s", "seq", "kind", "subject", "detail")

# One events.csv line.  Each cell is a stamp, an int or a word of
# letters, digits and "_=.- " (plan() checks the config names the engine
# puts in words), so this is the line csv.writer would write, and
# splitting it at its first four commas gives the cells back.
EVENT_ROW = "%s,%d,%s,%s,%s\n"


class Transmission:
    """A signal on the air from tick ``start`` to ``end``; collided is set
    while overlaps are live."""

    __slots__ = ("sender", "start", "end", "distance_m", "collided")

    def __init__(self, sender: str, start: int, end: int, distance_m: float):
        self.sender = sender
        self.start = start
        self.end = end
        self.distance_m = distance_m
        self.collided = False


class Medium:
    """Shared radio channel with a binary in-range/out-of-range disk.

    Signals go on the air through ``medium_transmit``; ``finish`` takes
    one off and returns its fate at the access point, once and in O(1).
    ``active`` holds the signals on the air, keyed by ``id``.  Signals
    enter in non-decreasing start time, as the engine's clock
    guarantees, so a new in-range one overlaps an earlier in-range one
    exactly when ``latest_end``, the latest in-range end so far, is
    after its start.  And of the in-range signals still on the air, all
    have collided but possibly ``clean``, the last one to enter
    unoverlapped: every earlier one had ended by the time it started.
    """

    def __init__(self, range_m: float = 100.0):
        self.range_m = range_m
        self.active: dict[int, Transmission] = {}
        self.last_start = 0
        self.latest_end = 0
        self.clean: Optional[Transmission] = None

    def busy_at(self, t: int, listener_distance_m: float) -> bool:
        """RSSI verdict: any audible signal on the air at tick t.

        Senders sit on a line through the access point, so the listener
        hears a transmission when the sender is within range of it.
        """
        return any(
            tx.start <= t < tx.end
            and abs(tx.distance_m - listener_distance_m) <= self.range_m
            for tx in self.active.values()
        )

    def finish(self, tx: Transmission) -> str:
        """Take an ended signal off the air; return its fate at the access
        point, final since no later start can overlap it."""
        del self.active[id(tx)]
        if tx.distance_m > self.range_m:
            return OUT_OF_RANGE
        return COLLIDED if tx.collided else RECEIVED


def medium_transmit(medium: Medium, tx: Transmission) -> Transmission:
    """Put a transmission on the air and flag overlaps at the receiver.

    Any time overlap between two signals both audible at the access
    point destroys both; there is no capture of the stronger one.  The
    outcome is final once the transmission's end time has passed, since
    a later sender can still collide with it; ``Medium.finish`` returns
    it then.  Transmissions must be put on the air in non-decreasing
    start time, from 0.
    """
    start, end = tx.start, tx.end
    if end <= start:
        raise ValueError("transmission must have positive duration")
    assert start >= medium.last_start, "transmissions must start in time order"
    medium.last_start = start
    if tx.distance_m <= medium.range_m:
        if start < medium.latest_end:
            tx.collided = True
            if start < medium.clean.end:
                medium.clean.collided = True
        else:
            medium.clean = tx
        medium.latest_end = max(medium.latest_end, end)
    medium.active[id(tx)] = tx
    return tx


def sense_and_quantize(
    truths: Sequence[TemperatureTrace],
    node_truth: Sequence[int],
    serials: Sequence[int],
    t: int,
    seed: int,
    noise_sigma_c: float = 0.0,
) -> list[tuple[int, float]]:
    """Every node's conversion at tick t, in node order: its raw count and
    the true temperature it was sensed from.

    Node i reads the temperature of ``truths[node_truth[i]]`` at t, plus
    seeded Gaussian noise keyed by its serial ``serials[i]`` and by t,
    clamped to the device's range.  Each of ``truths`` is evaluated once,
    however many nodes read it.

    The value is determined at conversion start; the device only makes
    it readable ``delay.sensor_conversion_s`` later (the engine enforces
    that lag).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    t_s = t / TICKS_PER_S
    group_c = [trace.value(t_s, seed) for trace in truths]
    true_c = [group_c[j] for j in node_truth]
    if noise_sigma_c > 0:
        temps = [c + noise_sigma_c * gauss(seed, _NOISE_STREAM, serial, t) for serial, c in zip(serials, true_c)]
    else:
        temps = true_c
    # Clamped before rounding, so a finite reading too large for a float
    # count (1e308 degC) still saturates; the bounds are whole counts.
    return [(round(min(max(c / TEMP_LSB_C, MIN_COUNTS), MAX_COUNTS)), truth) for c, truth in zip(temps, true_c)]


class SimStats:
    """Run counters, one ``stats.csv`` row each, in ``__slots__`` order.

    - conversions: temperature conversions started
    - frames_queued: frames built from a finished conversion
    - transmissions: node frames put on the air
    - delivered: node frames forwarded out of the serial side
    - collisions: node frames destroyed by an overlap at the access point
    - corrupt: node frames that arrived unoverlapped but failed decoding
    - deferrals: slots skipped because the channel sounded busy
    - beacons: beacon instants in the run (TDMA only)
    - out_of_range: node frames sent beyond the access point's range
    - replaced_pending: frames superseded before their slot came

    An interferer burst never reaches the access point, so collisions,
    corrupt and out_of_range count node frames only.
    """

    __slots__ = (
        "conversions", "frames_queued", "transmissions", "delivered", "collisions",
        "corrupt", "deferrals", "beacons", "out_of_range", "replaced_pending",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class SimResult(NamedTuple):
    readings: list[Reading]
    ledgers: dict[str, EnergyLedger]
    stats: SimStats


# A packet in flight: raw count, true temperature, sequence number,
# conversion start.
_Packet = tuple[int, float, int, int]


class _Node:
    """One sensor node's run state; ``plan`` holds its fixed terms.

    ``pending`` holds the packet waiting for the node's slot; exactly
    while it is set, one SLOT_START is queued for slot ``slot_k``.
    """

    __slots__ = ("plan", "pending", "slot_k", "radio_active")

    def __init__(self, plan: NodePlan):
        self.plan = plan
        self.pending: Optional[_Packet] = None
        self.slot_k = 0
        self.radio_active = 0


class _Engine:
    def __init__(self, plan: RunPlan, on_event: Callable[[str], object]):
        self.plan = plan
        self.medium = Medium(plan.config.range_m)
        self.now = 0
        self._emit = on_event
        self._n_events = 0
        self._stamp_at = -1
        self._stamp = ""
        self.readings: list[Reading] = []
        self.stats = SimStats()
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._heap_seq = itertools.count()
        self.nodes = [_Node(node) for node in plan.nodes]

    # -- queue plumbing ------------------------------------------------

    def _push(self, time: int, handler: Callable[..., None], *payload) -> None:
        assert time >= self.now, f"{handler.__name__} scheduled in the past"
        heapq.heappush(self._heap, (time, next(self._heap_seq), handler, payload))

    def _log(self, kind: str, subject: str, detail: str) -> None:
        now = self.now
        if now != self._stamp_at:
            self._stamp_at = now
            self._stamp = stamp(now)
        self._emit(EVENT_ROW % (self._stamp, self._n_events, kind, subject, detail))
        self._n_events += 1

    # -- run -----------------------------------------------------------

    def run(self) -> SimResult:
        plan = self.plan
        cfg = plan.config
        end = plan.duration
        if end:
            for intf, (start, period, airtime) in zip(cfg.interferers, plan.bursts):
                self._push(start, self._on_interferer_burst, intf, period, airtime)
        period = plan.sample_period
        conversion = plan.conversion
        serials = [node.spec.serial for node in plan.nodes]
        for k in range(next_instant_index(period, 0, end)):  # the instants before the end
            t = k * period
            self._dispatch_before(t)
            self.now = t
            sensed = sense_and_quantize(plan.truths, plan.node_truth, serials, t, cfg.seed, cfg.noise_sigma_c)
            self._push(t + conversion, self._on_conversions_done, k, t, sensed)
        # Events due exactly at the end still run.
        self._dispatch_before(end + 1)
        return self._finish()

    def _dispatch_before(self, t: int) -> None:
        """Run the queued handlers due strictly before ``t``, in queue order."""
        heap = self._heap
        while heap and heap[0][0] < t:
            self.now, _, handler, payload = heapq.heappop(heap)
            handler(*payload)

    def _finish(self) -> SimResult:
        plan = self.plan
        end = plan.duration
        prof = plan.config.power_profile
        v = prof.supply_voltage_v

        def joules(amperes: float, ticks: int) -> float:
            return energy(power(v, amperes), ticks / TICKS_PER_S)

        # Every node converts at each instant before the end and frames t7
        # and t1 later, so the run's sampling work is schedule arithmetic, as
        # its beacons are: what ends by the end comes before tick end + 1.
        n_nodes = len(self.nodes)
        converted = next_instant_index(plan.sample_period, plan.conversion, end + 1)
        framed = next_instant_index(plan.sample_period, plan.conversion + plan.prep, end + 1)
        self.stats.conversions = n_nodes * next_instant_index(plan.sample_period, 0, end)
        self.stats.frames_queued = n_nodes * framed
        sensor_active, mcu_active = converted * plan.conversion, framed * plan.prep
        sensing_j = joules(prof.sensor_i_active_a, sensor_active)
        mcu_j = joules(prof.mcu_i_active_a, mcu_active)
        # Busy spans never overlap and each ends by the end of the run.
        sensor_idle_j = joules(prof.sensor_i_idle_a, end - sensor_active)
        mcu_idle_j = joules(prof.mcu_i_idle_a, end - mcu_active)
        ledgers: dict[str, EnergyLedger] = {}
        for node in self.nodes:
            ledgers[node.plan.subject] = EnergyLedger(
                transmit_j=joules(prof.radio_i_transmit_a, node.radio_active),
                sensing_j=sensing_j,
                mcu_j=mcu_j,
                idle_j=joules(prof.radio_i_idle_a, end - node.radio_active) + sensor_idle_j + mcu_idle_j,
            )
        # The access point listens for the whole run.
        ledgers[AP] = EnergyLedger(receive_j=joules(prof.radio_i_receive_a, end))
        if plan.frame_period and end:
            # The beacons k * frame_period <= end: those before tick end + 1.
            self.stats.beacons = next_instant_index(plan.frame_period, 0, end + 1)
        return SimResult(readings=self.readings, ledgers=ledgers, stats=self.stats)

    # -- node-side handlers --------------------------------------------

    def _on_conversions_done(self, k: int, started: int, sensed: list[tuple[int, float]]) -> None:
        """Conversion k finishes on every node, in node order; the
        instant's frames then become ready together, as one cohort."""
        for node, (raw, _) in zip(self.nodes, sensed):
            self._log(CONVERSION_DONE, node.plan.subject, f"k={k} raw={raw}")
        self._push(self.now + self.plan.prep, self._on_frames_ready, k % (1 << 16), started, sensed)

    def _on_frames_ready(self, sequence: int, started: int, sensed: list[tuple[int, float]]) -> None:
        """Every node frames its reading, in node order.  Send-on-ready
        puts the whole cohort on the air after the radio switch; under
        TDMA each node waits for its own slot."""
        if not self.plan.frame_period:
            cohort = [(node, (raw, true_c, sequence, started)) for node, (raw, true_c) in zip(self.nodes, sensed)]
            self._push(self.now + self.plan.switch, self._on_tx_start, cohort)
            return
        for node, (raw, true_c) in zip(self.nodes, sensed):
            if node.pending is not None:
                # A still-undelivered older reading is superseded by this
                # one and goes out in the slot already queued for it.
                self.stats.replaced_pending += 1
            else:
                node.slot_k = next_instant_index(self.plan.frame_period, node.plan.slot_offset, self.now)
                self._push_slot(node)
            node.pending = (raw, true_c, sequence, started)

    def _push_slot(self, node: _Node) -> None:
        self._push(node.slot_k * self.plan.frame_period + node.plan.slot_offset, self._on_slot_start, node)

    def _on_slot_start(self, node: _Node) -> None:
        """Listen before send, logged as the slot's one row with detail
        ``busy`` or ``free``: a free channel transmits the pending frame,
        a busy one defers it to the node's slot in the next frame, with
        no retry bound."""
        busy = self.medium.busy_at(self.now, node.plan.spec.distance_m)
        self._log(SLOT_START, node.plan.subject, "busy" if busy else "free")
        if busy:
            self.stats.deferrals += 1
            node.slot_k += 1
            self._push_slot(node)
            return
        packet, node.pending = node.pending, None
        self._push(self.now + self.plan.switch, self._on_tx_start, [(node, packet)])

    def _on_tx_start(self, cohort: list[tuple[_Node, _Packet]]) -> None:
        """Each node of the cohort puts its frame on the air, in node
        order; all of them end at one time."""
        start = self.now
        end = start + self.plan.airtime
        on_air = []
        for node, packet in cohort:
            tx = Transmission(node.plan.subject, start, end, node.plan.spec.distance_m)
            medium_transmit(self.medium, tx)
            self._log(TX_START, node.plan.subject, f"seq={packet[2]}")
            on_air.append((tx, node, packet))
        self.stats.transmissions += len(cohort)
        self._push(end, self._on_tx_end, on_air)

    def _on_tx_end(self, on_air: list[tuple[Transmission, Optional[_Node], Optional[_Packet]]]) -> None:
        """End of each signal of a cohort: a node's frame and its packet,
        or an interferer burst (node None), which only occupied the
        channel."""
        for tx, node, packet in on_air:
            self._log(TX_END, tx.sender, f"collided={tx.collided}")
            fate = self.medium.finish(tx)
            if node is None:
                continue
            node.radio_active += tx.end - tx.start
            if fate == OUT_OF_RANGE:
                self.stats.out_of_range += 1
            else:
                self._push(self.now + node.plan.propagation, self._on_arrival, fate, node.plan, packet)

    # -- access-point handlers -----------------------------------------

    def _on_arrival(self, fate: str, node: NodePlan, packet: _Packet) -> None:
        """A node frame in range reaches the access point with the fate
        the medium gave it.  Only a received frame is encoded, and
        decoded at once."""
        if fate == COLLIDED:
            self._log(RX_COLLISION, AP, f"from={node.subject}")
            self.stats.collisions += 1
            return
        raw, true_c, sequence, started = packet
        word = encode_frame(node.sensor_id, raw, sequence)
        try:
            frame = decode_frame(word)
        except FrameError as exc:
            self.stats.corrupt += 1
            self._log(RX_DELIVER, AP, f"from={node.subject} corrupt={type(exc).__name__}")
            return
        self._log(RX_DELIVER, AP, f"from={node.subject} seq={frame.sequence}")
        # Receiver pipeline: mode switch, then serial transfer and USB hop.
        self._push(self.now + self.plan.switch + self.plan.serial, self._on_serial_out, frame, node, started, true_c)

    def _on_serial_out(self, frame: Frame, node: NodePlan, started: int, true_c: float) -> None:
        # The frame was encoded from the node's own id.
        self._log(SERIAL_OUT, AP, f"id={node.subject} seq={frame.sequence}")
        self.stats.delivered += 1
        self.readings.append(
            Reading(
                sensor_id=frame.sensor_id,
                time=self.now,
                raw=frame.raw_temp,
                sequence=frame.sequence,
                sample_time=started,
                true_c=true_c,
            )
        )

    # -- shared-cell handlers ------------------------------------------

    def _on_interferer_burst(self, intf, period: int, airtime: int) -> None:
        """A foreign burst occupies the channel: listening nodes defer
        and a node frame it overlaps is destroyed."""
        tx = Transmission(intf.name, self.now, self.now + airtime, intf.distance_m)
        medium_transmit(self.medium, tx)
        self._log(TX_START, intf.name, f"bits={intf.bits}")
        self._push(tx.end, self._on_tx_end, [(tx, None, None)])
        self._push(self.now + period, self._on_interferer_burst, intf, period, airtime)


def run_scenario(plan: RunPlan, on_event: Callable[[str], object]) -> SimResult:
    """Simulate the scenario of a ``ScenarioConfig.plan()``.

    Each logged event goes to ``on_event`` as it happens, in log order,
    as its finished ``events.csv`` line (``EVENT_ROW``, newline
    included), in the columns ``EVENT_COLUMNS``.  Identical (config,
    seed) pairs produce identical results, event for event and byte for
    byte once serialized.
    """
    return _Engine(plan, on_event).run()

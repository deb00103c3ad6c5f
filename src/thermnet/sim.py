"""Deterministic discrete-event simulation of the sensor cell.

Nodes sample their temperature trace, frame the reading, and contend
for the shared radio under either the slotted (beacon-synchronized)
MAC or a send-on-ready mode with no arbitration.  The access point
receives, decodes and forwards to the serial side.  Sampling instants
``k * sample_period_s`` and beacon instants ``k * frame_period_s`` are
schedule arithmetic: the run loop starts conversion k on every node, in
node order, before any queued event at that instant, and beacons are
neither queued nor logged, only counted.  Every other action is a
handler call on one queue ordered by (time, insertion sequence), so a
run is a pure function of the scenario config and seed.

Each delivered packet carries its full stage-by-stage timestamp record;
differencing those timestamps reproduces the analytical delay terms,
which is how the closed-form model and the simulator check each other.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .config import NodeSpec, ScenarioConfig, TDMA
from .delays import (
    DelayBudget,
    DelayParams,
    airtime,
    mcu_prep_delay,
    propagation_delay,
    serial_delay,
    usb_delay,
)
from .energy import EnergyLedger, energy, power
from .frames import FRAME_BITS, Frame, FrameError, SensorId, TEMP_LSB_C, decode_frame, encode_frame
from .mac import SlotSchedule, build_schedule, next_slot_index
from .monitor import Reading
from .rng import float_key, gauss
from .traces import TemperatureTrace

AP = "ap"

CONVERSION_DONE = "conversion_done"
SLOT_START = "slot_start"
RSSI_SAMPLE = "rssi_sample"
TX_START = "tx_start"
TX_END = "tx_end"
RX_DELIVER = "rx_deliver"
RX_COLLISION = "rx_collision"
SERIAL_OUT = "serial_out"

LOGGED_KINDS = frozenset(
    {CONVERSION_DONE, SLOT_START, RSSI_SAMPLE, TX_START, TX_END, RX_DELIVER, RX_COLLISION, SERIAL_OUT}
)

_NOISE_STREAM = 0x5E

# The device's measuring range, -55 to +125 degC, in counts.
MIN_COUNTS = round(-55.0 / TEMP_LSB_C)
MAX_COUNTS = round(125.0 / TEMP_LSB_C)


class SimEvent(NamedTuple):
    """One logged occurrence, and one ``events.csv`` row in column order.

    ``seq`` is the position in the log, which is ordered by (time_s, seq).
    """

    time_s: float
    seq: int
    kind: str
    subject: str
    detail: str = ""


@dataclass
class Transmission:
    """A signal on the air; collided is set while overlaps are live.
    ``frame`` is empty for an interferer burst."""

    sender: str
    start_s: float
    end_s: float
    frame: bytes
    distance_m: float
    collided: bool = False


class Medium:
    """Shared radio channel with a binary in-range/out-of-range disk."""

    def __init__(self, range_m: float = 100.0):
        self.range_m = range_m
        self.active: list[Transmission] = []

    def in_ap_range(self, tx: Transmission) -> bool:
        return tx.distance_m <= self.range_m

    def busy_at(self, t: float, listener_distance_m: float) -> bool:
        """RSSI verdict: any audible signal on the air at time t.

        Senders sit on a line through the access point, so the listener
        hears a transmission when the sender is within range of it.
        """
        return any(
            tx.start_s <= t < tx.end_s
            and abs(tx.distance_m - listener_distance_m) <= self.range_m
            for tx in self.active
        )

    def finish(self, tx: Transmission) -> None:
        self.active.remove(tx)


def medium_transmit(medium: Medium, tx: Transmission) -> Transmission:
    """Put a transmission on the air and flag overlaps at the receiver.

    Any time overlap between two signals both audible at the access
    point destroys both; there is no capture of the stronger one.  The
    outcome is final once the transmission's end time has passed, since
    a later sender can still collide with it; callers read ``collided``
    at end time.
    """
    if tx.end_s <= tx.start_s:
        raise ValueError("transmission must have positive duration")
    for other in medium.active:
        if tx.start_s < other.end_s and other.start_s < tx.end_s:
            if medium.in_ap_range(tx) and medium.in_ap_range(other):
                tx.collided = True
                other.collided = True
    medium.active.append(tx)
    return tx


def sense_and_quantize(
    trace: TemperatureTrace, t_s: float, seed: int, noise_sigma_c: float = 0.0, node_key: int = 0
) -> int:
    """Raw counts for the temperature at t_s, with seeded Gaussian noise,
    clamped to the device's range.

    The value is determined at conversion start; the device only makes
    it readable ``delay.sensor_conversion_s`` later (the engine enforces
    that lag).
    """
    if t_s < 0:
        raise ValueError("t_s must be >= 0")
    true_c = trace.value(t_s, seed)
    noise_c = 0.0
    if noise_sigma_c > 0:
        noise_c = noise_sigma_c * gauss(seed, _NOISE_STREAM, node_key, float_key(t_s))
    # Clamped before rounding, so a finite reading too large for a float
    # count (1e308 degC) still saturates; the bounds are whole counts.
    counts = (true_c + noise_c) / TEMP_LSB_C
    return round(min(max(counts, MIN_COUNTS), MAX_COUNTS))


def access_point_forward(arrival_s: float, bits: int, params: DelayParams) -> tuple[float, float, float]:
    """Receiver-side pipeline: mode switch, serial transfer, USB hop.

    Returns (serial_start_s, usb_start_s, serial_out_s) for a frame
    that finished arriving at arrival_s.
    """
    serial_start = arrival_s + params.radio_switch_delay_s
    usb_start = serial_start + serial_delay(bits, params)
    serial_out = usb_start + usb_delay(bits, params)
    return serial_start, usb_start, serial_out


@dataclass
class MeasuredDelay:
    """Stage timestamps of one packet, filled in as events fire.

    budget() differences them into the eight analytical terms; the
    queue wait between frame-ready and the transmit decision is real
    time but not part of the per-packet budget.
    """

    sensor_id: SensorId
    sequence: int
    distance_m: float
    conversion_start_s: float = math.nan
    conversion_done_s: float = math.nan
    frame_ready_s: float = math.nan
    decision_s: float = math.nan
    tx_start_s: float = math.nan
    tx_end_s: float = math.nan
    arrival_s: float = math.nan
    serial_start_s: float = math.nan
    usb_start_s: float = math.nan
    serial_out_s: float = math.nan

    @property
    def queue_wait_s(self) -> float:
        return self.decision_s - self.frame_ready_s

    def budget(self) -> DelayBudget:
        t1 = self.frame_ready_s - self.conversion_done_s
        t2 = self.tx_start_s - self.decision_s
        t3 = self.arrival_s - self.tx_end_s
        t4 = self.tx_end_s - self.tx_start_s
        t5 = self.serial_start_s - self.arrival_s
        t6 = self.usb_start_s - self.serial_start_s
        t7 = self.conversion_done_s - self.conversion_start_s
        t8 = self.serial_out_s - self.usb_start_s
        total = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
        return DelayBudget(t1, t2, t3, t4, t5, t6, t7, t8, total)


@dataclass
class SimStats:
    """Run counters, one ``stats.csv`` row each, in field order.

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

    conversions: int = 0
    frames_queued: int = 0
    transmissions: int = 0
    delivered: int = 0
    collisions: int = 0
    corrupt: int = 0
    deferrals: int = 0
    beacons: int = 0
    out_of_range: int = 0
    replaced_pending: int = 0


@dataclass(frozen=True)
class SimResult:
    events: list[SimEvent]
    readings: list[Reading]
    ledgers: dict[str, EnergyLedger]
    delay_samples: list[MeasuredDelay]
    stats: SimStats
    schedule: Optional[SlotSchedule]
    end_time_s: float


@dataclass
class _Node:
    """One sensor node.

    ``pending`` holds the raw reading waiting for the node's slot, with
    its delay record; exactly while it is set, one SLOT_START is queued for
    slot ``slot_k``, at ``slot_k * frame_period_s + slot_offset_s``.
    """

    spec: NodeSpec
    sensor_id: SensorId
    subject: str
    index: int
    slot_offset_s: float = 0.0
    pending: Optional[tuple[int, MeasuredDelay]] = None
    slot_k: int = 0
    radio_active_s: float = 0.0
    sensor_active_s: float = 0.0
    mcu_active_s: float = 0.0


class _Engine:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.params = config.delay_params
        self.profile = config.power_profile
        self.medium = Medium(config.range_m)
        self.end_time_s = float(config.duration_s)
        self.now = 0.0
        self.events: list[SimEvent] = []
        self.readings: list[Reading] = []
        self.delay_samples: list[MeasuredDelay] = []
        self.stats = SimStats()
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._heap_seq = itertools.count()

        self.nodes: list[_Node] = []
        for i, spec in enumerate(config.nodes):
            sid = spec.sensor_id(config.family_code)
            self.nodes.append(_Node(spec, sid, sid.hex(), index=i))

        self.schedule: Optional[SlotSchedule] = None
        if config.mac_mode == TDMA:
            self.schedule = build_schedule(
                [n.sensor_id for n in self.nodes],
                FRAME_BITS,
                self.params,
                guard_s=config.guard_s,
                beacon_s=config.beacon_s,
            )
            for node in self.nodes:
                node.slot_offset_s = self.schedule.slot_offset_s(node.sensor_id)

    # -- queue plumbing ------------------------------------------------

    def _push(self, time_s: float, handler: Callable[..., None], *payload) -> None:
        assert time_s >= self.now - 1e-12, f"{handler.__name__} scheduled in the past"
        heapq.heappush(self._heap, (time_s, next(self._heap_seq), handler, payload))

    def _log(self, kind: str, subject: str, detail: str = "") -> None:
        assert kind in LOGGED_KINDS
        self.events.append(SimEvent(self.now, len(self.events), kind, subject, detail))

    # -- run -----------------------------------------------------------

    def run(self) -> SimResult:
        if self.end_time_s > 0:
            for intf in self.config.interferers:
                self._push(intf.start_s, self._on_interferer_burst, intf)
        period = self.config.sample_period_s
        for k in range(math.ceil(self.end_time_s / period)):
            t = k * period
            if t >= self.end_time_s:
                break
            self._dispatch_before(t)
            self.now = t
            for node in self.nodes:
                self._on_conversion_start(node, k)
        # Events due exactly at the end still run.
        self._dispatch_before(math.nextafter(self.end_time_s, math.inf))
        return self._finish()

    def _dispatch_before(self, t: float) -> None:
        """Run the queued handlers due strictly before ``t``, in queue order."""
        heap = self._heap
        while heap and heap[0][0] < t:
            self.now, _, handler, payload = heapq.heappop(heap)
            handler(*payload)

    def _finish(self) -> SimResult:
        end = self.end_time_s
        prof = self.profile
        v = prof.supply_voltage_v
        ledgers: dict[str, EnergyLedger] = {}
        for node in self.nodes:
            ledgers[node.subject] = EnergyLedger(
                transmit_j=energy(power(v, prof.radio_i_transmit_a), node.radio_active_s),
                sensing_j=energy(power(v, prof.sensor_i_active_a), node.sensor_active_s),
                mcu_j=energy(power(v, prof.mcu_i_active_a), node.mcu_active_s),
                idle_j=energy(power(v, prof.radio_i_idle_a), end - node.radio_active_s)
                + energy(power(v, prof.sensor_i_idle_a), end - node.sensor_active_s)
                + energy(power(v, prof.mcu_i_idle_a), end - node.mcu_active_s),
            )
        # The access point listens for the whole run.
        ledgers[AP] = EnergyLedger(receive_j=energy(power(v, prof.radio_i_receive_a), end))
        if self.schedule is not None and end > 0:
            self.stats.beacons = _instants_up_to(self.schedule.frame_period_s, end)
        return SimResult(
            events=self.events,
            readings=self.readings,
            ledgers=ledgers,
            delay_samples=self.delay_samples,
            stats=self.stats,
            schedule=self.schedule,
            end_time_s=end,
        )

    # -- node-side handlers --------------------------------------------

    def _on_conversion_start(self, node: _Node, k: int) -> None:
        self.stats.conversions += 1
        cfg = self.config
        raw = sense_and_quantize(node.spec.trace, self.now, cfg.seed, cfg.noise_sigma_c, node.index)
        done = self.now + self.params.sensor_conversion_s
        self._push(done, self._on_conversion_done, node, k, raw, self.now)

    def _on_conversion_done(self, node: _Node, k: int, raw: int, started_s: float) -> None:
        self._log(CONVERSION_DONE, node.subject, f"k={k} raw={raw}")
        node.sensor_active_s += self.params.sensor_conversion_s
        md = MeasuredDelay(
            sensor_id=node.sensor_id,
            sequence=k % (1 << 16),
            distance_m=node.spec.distance_m,
            conversion_start_s=started_s,
            conversion_done_s=self.now,
        )
        self._push(self.now + mcu_prep_delay(self.params), self._on_frame_ready, node, md, raw)

    def _on_frame_ready(self, node: _Node, md: MeasuredDelay, raw: int) -> None:
        md.frame_ready_s = self.now
        node.mcu_active_s += mcu_prep_delay(self.params)
        self.stats.frames_queued += 1
        if self.schedule is None:
            md.decision_s = self.now
            self._push(self.now + self.params.radio_switch_delay_s, self._on_tx_start, node, raw, md)
            return
        if node.pending is not None:
            # A still-undelivered older reading is superseded by this one
            # and goes out in the slot already queued for it.
            self.stats.replaced_pending += 1
        else:
            node.slot_k = next_slot_index(self.schedule, node.sensor_id, self.now)
            self._push_slot(node)
        node.pending = (raw, md)

    def _push_slot(self, node: _Node) -> None:
        self._push(node.slot_k * self.schedule.frame_period_s + node.slot_offset_s, self._on_slot_start, node)

    def _on_slot_start(self, node: _Node) -> None:
        """Listen before send: a free channel transmits the pending frame,
        a busy one defers it to the node's slot in the next frame, with
        no retry bound."""
        self._log(SLOT_START, node.subject)
        busy = self.medium.busy_at(self.now, node.spec.distance_m)
        self._log(RSSI_SAMPLE, node.subject, "busy" if busy else "free")
        if busy:
            self.stats.deferrals += 1
            node.slot_k += 1
            self._push_slot(node)
            return
        raw, md = node.pending
        node.pending = None
        md.decision_s = self.now
        self._push(self.now + self.params.radio_switch_delay_s, self._on_tx_start, node, raw, md)

    def _on_tx_start(self, node: _Node, raw: int, md: MeasuredDelay) -> None:
        word = encode_frame(node.sensor_id, raw, md.sequence)
        tx = Transmission(
            sender=node.subject,
            start_s=self.now,
            end_s=self.now + airtime(FRAME_BITS, self.params),
            frame=word,
            distance_m=node.spec.distance_m,
        )
        medium_transmit(self.medium, tx)
        md.tx_start_s = self.now
        self.stats.transmissions += 1
        self._log(TX_START, node.subject, f"seq={md.sequence}")
        self._push(tx.end_s, self._on_tx_end, tx, node, md)

    def _on_tx_end(self, tx: Transmission, node: Optional[_Node], md: Optional[MeasuredDelay]) -> None:
        """End of a node's frame, or of an interferer burst (node and md
        None), which only occupied the channel."""
        self._log(TX_END, tx.sender, f"collided={tx.collided}")
        self.medium.finish(tx)
        if node is None:
            return
        md.tx_end_s = self.now
        node.radio_active_s += tx.end_s - tx.start_s
        if not self.medium.in_ap_range(tx):
            self.stats.out_of_range += 1
            return
        self._push(self.now + propagation_delay(tx.distance_m, self.params), self._on_arrival, tx, md)

    # -- access-point handlers -----------------------------------------

    def _on_arrival(self, tx: Transmission, md: MeasuredDelay) -> None:
        """A node frame reaches the access point; ``tx.collided`` is final
        because the transmission has ended."""
        if tx.collided:
            self._log(RX_COLLISION, AP, f"from={tx.sender}")
            self.stats.collisions += 1
            return
        try:
            frame = decode_frame(tx.frame)
        except FrameError as exc:
            self.stats.corrupt += 1
            self._log(RX_DELIVER, AP, f"from={tx.sender} corrupt={type(exc).__name__}")
            return
        self._log(RX_DELIVER, AP, f"from={tx.sender} seq={frame.sequence}")
        md.arrival_s = self.now
        serial_start, usb_start, out = access_point_forward(self.now, FRAME_BITS, self.params)
        md.serial_start_s = serial_start
        md.usb_start_s = usb_start
        self._push(out, self._on_serial_out, frame, md)

    def _on_serial_out(self, frame: Frame, md: MeasuredDelay) -> None:
        md.serial_out_s = self.now
        self._log(SERIAL_OUT, AP, f"id={frame.sensor_id.hex()} seq={frame.sequence}")
        self.stats.delivered += 1
        budget = md.budget()
        self.readings.append(
            Reading(
                sensor_id=frame.sensor_id,
                time_s=self.now,
                raw=frame.raw_temp,
                sequence=frame.sequence,
                total_delay_s=budget.total,
                sample_time_s=md.conversion_start_s,
            )
        )
        self.delay_samples.append(md)

    # -- shared-cell handlers ------------------------------------------

    def _on_interferer_burst(self, intf) -> None:
        """A foreign burst occupies the channel: listening nodes defer
        and a node frame it overlaps is destroyed."""
        tx = Transmission(
            sender=intf.name,
            start_s=self.now,
            end_s=self.now + airtime(intf.bits, self.params),
            frame=b"",
            distance_m=intf.distance_m,
        )
        medium_transmit(self.medium, tx)
        self._log(TX_START, intf.name, f"bits={intf.bits}")
        self._push(tx.end_s, self._on_tx_end, tx, None, None)
        self._push(self.now + intf.period_s, self._on_interferer_burst, intf)


def _instants_up_to(period_s: float, end_s: float) -> int:
    """Number of k >= 0 with ``k * period_s <= end_s``, for end_s >= 0.

    The float product is the one slot instants use, so an instant on
    the end counts exactly when the run loop's ``time <= end`` would.
    """
    k = math.floor(end_s / period_s)
    while (k + 1) * period_s <= end_s:
        k += 1
    while k * period_s > end_s:
        k -= 1
    return k + 1


def run_scenario(config: ScenarioConfig) -> SimResult:
    """Simulate one scenario; raises ConfigError on invalid configs.

    Identical (config, seed) pairs produce identical results, event for
    event and byte for byte once serialized.
    """
    return _Engine(config).run()

"""Event engine tests: medium semantics, sensor physics, and whole-run
properties (determinism, delay agreement, collision behavior, energy
conservation against an event-log recompute).
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    _float_key,
    access_point_ledger,
    band_value_oracle,
    collided_by_pairwise_scan,
    gauss_oracle,
    ledger_from_events,
    mix64_oracle,
    read_rows,
    run_logged,
    sense_band_oracle,
    ticks_of,
)
from thermnet.cli import _write_simulation_outputs, cmd_simulate
from thermnet import sim
from thermnet.config import ALOHA, TDMA, InterfererSpec, NodeSpec, ScenarioConfig, load_config
from thermnet.csvio import TICKS_PER_S, stamp
from thermnet.delays import DelayParams, airtime, total_delay
from thermnet.frames import FRAME_BITS, make_sensor_id
from thermnet.rng import float_key, gauss, mix64
from thermnet.sim import (
    EVENT_COLUMNS,
    Medium,
    Transmission,
    _Engine,
    medium_transmit,
    run_scenario,
    sense_and_quantize,
)
from thermnet.traces import BandNoiseTrace, ConstantTrace, RampTrace, SinusoidTrace

PARAMS = DelayParams()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_nodes(**overrides) -> ScenarioConfig:
    base = dict(
        nodes=(
            NodeSpec("node1", 1, ConstantTrace(36.5), distance_m=10.0),
            NodeSpec("node2", 2, ConstantTrace(39.0), distance_m=25.0),
        ),
        duration_s=30.0,
        seed=123,
        noise_sigma_c=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- medium ------------------------------------------------------------


def _tx(sender, start_s, bits=FRAME_BITS, distance=10.0):
    start = round(start_s * TICKS_PER_S)
    return Transmission(sender, start, start + round(airtime(bits, PARAMS) * TICKS_PER_S), distance)


def test_single_transmission_is_clean():
    medium = Medium()
    tx = medium_transmit(medium, _tx("a", 0.0))
    assert not tx.collided


def test_tiny_overlap_destroys_both():
    medium = Medium()
    first = _tx("a", 0.0)
    second = Transmission("b", first.end - 1, first.end + 1, 10.0)
    medium_transmit(medium, first)
    medium_transmit(medium, second)
    assert first.collided and second.collided


def test_back_to_back_is_not_overlap():
    medium = Medium()
    first = _tx("a", 0.0)
    second = Transmission("b", first.end, first.end + 1, 10.0)
    medium_transmit(medium, first)
    medium_transmit(medium, second)
    assert not first.collided and not second.collided


def test_disjoint_slots_deliver_both():
    medium = Medium()
    first = _tx("a", 0.002)
    second = _tx("b", 0.021)
    medium_transmit(medium, first)
    medium_transmit(medium, second)
    assert not first.collided and not second.collided


def test_out_of_range_sender_cannot_collide_at_receiver():
    medium = Medium(range_m=100.0)
    near = _tx("a", 0.0, distance=10.0)
    far = _tx("b", 0.0, distance=150.0)
    medium_transmit(medium, near)
    medium_transmit(medium, far)
    assert not near.collided and not far.collided


def test_busy_verdict_uses_listener_position():
    medium = Medium(range_m=100.0)
    tx = medium_transmit(medium, _tx("a", 0.0, distance=120.0))
    t = TICKS_PER_S // 1000
    assert medium.busy_at(t, 50.0)  # 70 m from the sender
    assert not medium.busy_at(t, 10.0)  # 110 m away, inaudible
    assert medium.busy_at(tx.end - 1, 50.0)  # its last tick
    assert not medium.busy_at(tx.end, 50.0)  # over


def test_zero_length_transmission_rejected():
    with pytest.raises(ValueError):
        medium_transmit(Medium(), Transmission("a", TICKS_PER_S, TICKS_PER_S, 10.0))


@pytest.mark.parametrize("distance", [10.0, 150.0])
def test_out_of_order_start_fails_the_assertion(distance):
    medium = Medium(range_m=100.0)
    medium_transmit(medium, _tx("a", 1.0))
    with pytest.raises(AssertionError, match="time order"):
        medium_transmit(medium, _tx("b", 0.5, distance=distance))


# Whole-unit starts and durations, so equal starts and ends tied with
# starts are common; distances on both sides of a 100 m range.
_signals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([0.0, 40.0, 100.0, 100.5, 160.0]),
    ),
    max_size=12,
)


@settings(max_examples=300)
@given(_signals, st.booleans())
@example([(0, 2, 10.0), (2, 2, 10.0), (2, 1, 10.0)], True)  # a tie with an end, then an equal start
@example([(0, 5, 10.0), (1, 1, 150.0), (2, 1, 10.0), (3, 1, 10.0)], False)
def test_medium_matches_pairwise_scan(signals, finish_ended):
    # The medium keeps only the latest in-range end and one clean signal;
    # the oracle compares every pair.  Signals that have ended are
    # finished before the next start, as the engine does, or only once
    # every signal is on the air.
    transmissions = sorted(((start, start + length, d) for start, length, d in signals), key=lambda tx: tx[0])
    medium = Medium(range_m=100.0)
    sent = []
    fate_of = {}
    for start, end, distance in transmissions:
        if finish_ended:
            for tx in [tx for tx in medium.active.values() if tx.end <= start]:
                fate_of[id(tx)] = medium.finish(tx)
        sent.append(medium_transmit(medium, Transmission("n", start, end, distance)))
    collided = collided_by_pairwise_scan(transmissions, 100.0)
    assert [tx.collided for tx in sent] == collided
    for tx in list(medium.active.values()):
        fate_of[id(tx)] = medium.finish(tx)
    assert [fate_of[id(tx)] for tx in sent] == [
        sim.OUT_OF_RANGE if distance > 100.0 else sim.COLLIDED if hit else sim.RECEIVED
        for (_, _, distance), hit in zip(transmissions, collided)
    ]


# -- sensor physics ----------------------------------------------------


def sense_one(trace, t, seed, noise_sigma_c=0.0):
    """The raw count of a one-node cell reading ``trace`` at tick t."""
    ((raw, true_c),) = sense_and_quantize([trace], [0], [1], t, seed, noise_sigma_c)
    assert true_c == trace.value(t / TICKS_PER_S, seed)
    return raw


def test_quantize_constant_26():
    assert sense_one(ConstantTrace(26.0), 3 * TICKS_PER_S, seed=1) == 416


def test_quantize_zero():
    assert sense_one(ConstantTrace(0.0), 0, seed=1) == 0


def test_quantize_band_bounds():
    trace = BandNoiseTrace(26.0, 30.0)
    values = [sense_one(trace, t * TICKS_PER_S, seed=9) for t in range(500)]
    assert all(416 <= v <= 480 for v in values)
    assert len(set(values)) > 10


def test_quantize_clamps_to_device_range():
    assert sense_one(ConstantTrace(500.0), 0, seed=1) == 2000
    assert sense_one(ConstantTrace(-500.0), 0, seed=1) == -880
    assert sense_one(ConstantTrace(1e308), 0, seed=1) == 2000


def test_noise_is_pure_in_time_and_seed():
    trace = ConstantTrace(37.0)
    t = 5 * TICKS_PER_S
    a = sense_one(trace, t, seed=4, noise_sigma_c=0.1)
    assert a == sense_one(trace, t, seed=4, noise_sigma_c=0.1)
    different = [sense_one(trace, t, seed=s, noise_sigma_c=0.1) for s in range(30)]
    assert len(set(different)) > 1


_SEEDS = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=-1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=1 << 64, max_value=1 << 80),
)
_INSTANTS = st.one_of(
    st.sampled_from([0, 1, TICKS_PER_S, 10**30]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**18),
    st.integers(min_value=10**18, max_value=10**30),
)
# Each node's truth group and its serial.
_NODES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=(1 << 48) - 1)),
    min_size=2,
    max_size=6,
    unique_by=lambda node: node[1],
)


@settings(max_examples=200)
@given(
    _SEEDS,
    _NODES,
    st.lists(_INSTANTS, min_size=1, max_size=3),
    st.floats(min_value=-60.0, max_value=130.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from([0.0, 0.1, 2.5]),
)
@example(-1, [(0, 1), (1, 2)], [0, 1, 10**30], 36.0, 2.0, 0.1)
@example(1 << 64, [(2, 7), (0, 0), (2, 1 << 47), (2, 3)], [TICKS_PER_S], 36.0, 2.0, 0.1)
def test_sensing_equals_step_by_step_rng(seed, nodes, instants, low_c, width_c, sigma_c):
    # The prefix cache must be keyed by seed, stream and serial: several
    # nodes share each seed and each truth here, and the seeds vary
    # across examples.  A node's noise is keyed by its serial and the
    # tick, and its true temperature is its own truth's at the tick in
    # seconds.
    truths = [BandNoiseTrace(low_c + d, low_c + d + width_c) for d in (0.0, 0.5, 3.0)]
    node_truth = [j for j, _ in nodes]
    serials = [serial for _, serial in nodes]
    for t in instants:
        t_s = t / TICKS_PER_S
        for trace in truths:
            assert trace.value(t_s, seed) == band_value_oracle(trace.low_c, trace.high_c, t_s, seed)
        expected = [
            (
                sense_band_oracle(truths[j].low_c, truths[j].high_c, t, seed, sigma_c, serial),
                band_value_oracle(truths[j].low_c, truths[j].high_c, t_s, seed),
            )
            for j, serial in nodes
        ]
        assert sense_and_quantize(truths, node_truth, serials, t, seed, sigma_c) == expected


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_float_key_is_the_bit_pattern(t):
    assert float_key(t) == _float_key(t)


@given(_SEEDS, st.lists(st.integers(min_value=-(1 << 70), max_value=1 << 70), max_size=5))
def test_mix64_and_gauss_equal_step_by_step_rng(seed, keys):
    assert mix64(seed, *keys) == mix64_oracle(seed, *keys)
    assert gauss(seed, *keys) == gauss_oracle(seed, *keys)


# -- whole runs --------------------------------------------------------


def test_sixty_readings_in_sixty_seconds():
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 0x11A3, BandNoiseTrace(26.0, 30.0)),),
        duration_s=60.0,
        seed=7,
        noise_sigma_c=0.0,
    )
    result, _ = run_logged(cfg.plan())
    assert len(result.readings) == 60
    assert [r.sequence for r in result.readings] == list(range(60))


def test_zero_duration_run_is_empty():
    result, events = run_logged(two_nodes(duration_s=0.0).plan())
    assert events == []
    assert result.readings == []
    assert all(led.total_j == 0.0 for led in result.ledgers.values())


def test_readings_partition_by_sensor():
    result, _ = run_logged(two_nodes(duration_s=60.0).plan())
    by_id = {}
    for reading in result.readings:
        by_id.setdefault(reading.sensor_id.hex(), []).append(reading)
    assert set(by_id) == {make_sensor_id(serial=1).hex(), make_sensor_id(serial=2).hex()}
    assert {r.temp_c for r in by_id[make_sensor_id(serial=1).hex()]} == {36.5}
    assert {r.temp_c for r in by_id[make_sensor_id(serial=2).hex()]} == {39.0}


def test_identical_runs_are_identical():
    a, a_events = run_logged(two_nodes().plan())
    b, b_events = run_logged(two_nodes().plan())
    assert a_events == b_events
    assert a.readings == b.readings
    assert a.ledgers == b.ledgers


def test_different_seed_changes_noisy_run():
    noisy = two_nodes(noise_sigma_c=0.1)
    a, _ = run_logged(noisy.plan())
    b, _ = run_logged(noisy._replace(seed=999).plan())
    assert [r.raw for r in a.readings] != [r.raw for r in b.readings]


def one_node(mac_mode, **overrides) -> ScenarioConfig:
    return two_nodes(nodes=two_nodes().nodes[:1], mac_mode=mac_mode, **overrides)


def _delivered(cfg):
    """Each delivered packet's node distance and stage times in ticks,
    read off the run's event log.

    The runs are too short for the sequence number to wrap, so a packet
    is (node, conversion k), and conversion k is sent as sequence k.  A
    node has one frame on the air at a time, so its next tx_end ends it,
    and under TDMA the slot that sends it is the node's last slot_start.
    """
    plan = cfg.plan()
    result, events = run_logged(plan)
    distance_m = {make_sensor_id(cfg.family_code, node.serial).hex(): node.distance_m for node in cfg.nodes}
    packets, last_slot, on_air, delivered = {}, {}, {}, []
    for event in events:
        word = dict(w.split("=") for w in event.detail.split() if "=" in w)
        if event.kind == "conversion_done":
            k = int(word["k"])
            packets[event.subject, k] = {"conversion_start": k * plan.sample_period, "conversion_done": event.time}
        elif event.kind == "slot_start":
            last_slot[event.subject] = event.time
        elif event.kind == "tx_start":
            packet = on_air[event.subject] = packets[event.subject, int(word["seq"])]
            packet["tx_start"] = event.time
            if event.subject in last_slot:
                packet["slot_start"] = last_slot[event.subject]
        elif event.kind == "tx_end":
            on_air.pop(event.subject)["tx_end"] = event.time
        elif event.kind == "rx_deliver":
            packets[word["from"], int(word["seq"])]["rx_deliver"] = event.time
        elif event.kind == "serial_out":
            packet = packets[word["id"], int(word["seq"])]
            packet["serial_out"] = event.time
            delivered.append((distance_m[word["id"]], packet))
    assert len(delivered) == result.stats.delivered > 0
    return delivered


def _ticks_near(ticks, seconds):
    """A span in ticks is within one tick of a closed-form span in seconds."""
    return abs(ticks - seconds * TICKS_PER_S) <= 1


def test_forward_pipeline_stage_times():
    # The receiver pipeline: mode switch, serial transfer, USB hop.
    delivered = _delivered(two_nodes(duration_s=20.0))
    assert len(delivered) == 40
    for _, at in delivered:
        assert _ticks_near(at["serial_out"] - at["rx_deliver"], 130e-6 + 256 / 19_200 + 256 / 12e6)


def test_forward_fast_serial_limit():
    fast = PARAMS._replace(serial_rate_bps=1e15)
    delivered = _delivered(two_nodes(duration_s=20.0, delay_params=fast))
    assert len(delivered) == 40
    for _, at in delivered:
        assert _ticks_near(at["serial_out"] - at["rx_deliver"], 130e-6 + 256 / 12e6)


def test_measured_stages_match_closed_form():
    # Both MACs, with the serial link at its default rate and near its
    # fast limit.  The serial-start and USB-start instants are not
    # logged, so the receiver chain is checked as one sum.  Each stage
    # is its planned span, within a tick of its closed form.
    for cfg in (two_nodes(duration_s=20.0), one_node(ALOHA, duration_s=20.0)):
        for params in (PARAMS, PARAMS._replace(serial_rate_bps=1e15)):
            for distance_m, at in _delivered(cfg._replace(delay_params=params)):
                closed = total_delay(FRAME_BITS, distance_m, params)
                assert _ticks_near(at["conversion_done"] - at["conversion_start"], closed.t7)
                if cfg.mac_mode == TDMA:
                    assert _ticks_near(at["tx_start"] - at["slot_start"], closed.t2)
                    assert at["slot_start"] >= at["conversion_done"] + round(closed.t1 * TICKS_PER_S)
                else:
                    assert _ticks_near(at["tx_start"] - at["conversion_done"], closed.t1 + closed.t2)
                assert _ticks_near(at["tx_end"] - at["tx_start"], closed.t4)
                assert _ticks_near(at["rx_deliver"] - at["tx_end"], closed.t3)
                assert _ticks_near(at["serial_out"] - at["rx_deliver"], closed.t5 + closed.t6 + closed.t8)


def test_readings_csv_delay_is_serial_out_less_conversion_start(tmp_path):
    # Each row's total_delay_s is its own reading's delay, the queue wait
    # included, exact however late in the run it was sampled.
    for i, cfg in enumerate((
        two_nodes(duration_s=20.0),
        one_node(TDMA, sample_period_s=20000.0, duration_s=100000.0),
        one_node(ALOHA, sample_period_s=20000.0, duration_s=100000.0),
    )):
        plan = cfg.plan()
        result, _ = run_logged(plan)
        _write_simulation_outputs(plan, result, tmp_path / str(i))
        rows = read_rows(tmp_path / str(i) / "readings.csv")
        assert len(rows) == len(result.readings) == len(cfg.nodes) * cfg.duration_s / cfg.sample_period_s
        for row, reading in zip(rows, result.readings):
            assert row["total_delay_s"] == stamp(reading.time - reading.sample_time)
            assert ticks_of(row["serial_out_time_s"]) - ticks_of(row["total_delay_s"]) == reading.sample_time


def test_collision_free_under_slotting():
    for n in (1, 2, 4, 8, 16):
        cfg = ScenarioConfig(
            nodes=tuple(NodeSpec(f"node{i}", i + 1, ConstantTrace(36.0)) for i in range(n)),
            duration_s=30.0,
            noise_sigma_c=0.0,
        )
        result, events = run_logged(cfg.plan())
        assert result.stats.collisions == 0
        assert not any(e.kind == "rx_collision" for e in events)


def test_unslotted_phase_aligned_nodes_collide():
    result, events = run_logged(two_nodes(mac_mode="aloha", duration_s=10.0).plan())
    assert result.stats.collisions >= 1
    assert any(e.kind == "rx_collision" for e in events)
    assert result.stats.delivered == 0


def test_event_log_is_ordered_and_causal():
    plan = two_nodes(duration_s=15.0).plan()
    _, events = run_logged(plan)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert [e.seq for e in events] == list(range(len(events)))
    # Every transmission runs start -> end -> delivery, strictly forward.
    assert _ticks_near(plan.airtime, airtime(FRAME_BITS, PARAMS))
    for subject in (make_sensor_id(serial=1).hex(), make_sensor_id(serial=2).hex()):
        starts = [e.time for e in events if e.kind == "tx_start" and e.subject == subject]
        ends = [e.time for e in events if e.kind == "tx_end" and e.subject == subject]
        assert len(starts) == len(ends)
        for s, e in zip(starts, ends):
            assert e - s == plan.airtime


def test_transmissions_only_inside_own_slots():
    # The bursts make both nodes defer dozens of slots in a row.
    bursts = InterfererSpec("interferer1", distance_m=5.0, period_s=2.0, start_s=0.75, bits=18900)
    for cfg in (two_nodes(duration_s=25.0), two_nodes(duration_s=25.0, interferers=(bursts,))):
        plan = cfg.plan()
        _, events = run_logged(plan)
        slots = {node.subject: node.slot_offset for node in plan.nodes}
        for event in events:
            if event.kind != "tx_start" or event.subject == "interferer1":
                continue
            # A radio switch after the slot edge, modulo the frame period.
            assert (event.time - plan.switch - slots[event.subject]) % plan.frame_period == 0


def test_energy_ledger_matches_event_log_recompute():
    cfg = two_nodes(duration_s=45.0, noise_sigma_c=0.1)
    plan = cfg.plan()
    result, events = run_logged(plan)
    for node in cfg.nodes:
        subject = make_sensor_id(cfg.family_code, node.serial).hex()
        want = ledger_from_events(events, plan, subject)
        got = result.ledgers[subject]
        assert abs(got.total_j - want.total_j) < 1e-9
        assert abs(got.transmit_j - want.transmit_j) < 1e-9
        assert abs(got.sensing_j - want.sensing_j) < 1e-9
        assert abs(got.mcu_j - want.mcu_j) < 1e-9
        assert abs(got.idle_j - want.idle_j) < 1e-9
    ap = access_point_ledger(result, plan)
    assert abs(result.ledgers["ap"].total_j - ap.total_j) < 1e-9
    assert result.ledgers["ap"].receive_j == ap.receive_j


def test_out_of_range_node_is_never_delivered():
    cfg = two_nodes()
    cfg = cfg._replace(nodes=(cfg.nodes[0]._replace(distance_m=250.0), cfg.nodes[1]))
    result, _ = run_logged(cfg.plan())
    assert result.stats.out_of_range > 0
    delivered_ids = {r.sensor_id for r in result.readings}
    assert delivered_ids == {make_sensor_id(serial=2)}


def test_a_frame_that_fails_its_crc_is_counted_corrupt_and_never_delivered(tmp_path, monkeypatch):
    # No shipped scenario corrupts a frame, so flip one bit of the frame-crc
    # byte of every word the access point encodes.
    encode = sim.encode_frame

    def flipped(*fields):
        word = bytearray(encode(*fields))
        word[14] ^= 0x01
        return bytes(word)

    monkeypatch.setattr(sim, "encode_frame", flipped)
    cfg = two_nodes()
    cfg = cfg._replace(nodes=(cfg.nodes[0]._replace(distance_m=250.0), *cfg.nodes[1:]))
    assert cmd_simulate(cfg, tmp_path) == 0
    events = read_rows(tmp_path / "events.csv")
    stats = {row["counter"]: int(row["value"]) for row in read_rows(tmp_path / "stats.csv")}
    received = [row["detail"] for row in events if row["kind"] == "rx_deliver"]
    assert received and all(detail.endswith(" corrupt=BadFrameCrc") for detail in received)
    assert stats["corrupt"] == len(received)
    assert stats["delivered"] == 0 and read_rows(tmp_path / "readings.csv") == []
    subjects = {node.subject for node in cfg.plan().nodes}
    ended = sum(row["kind"] == "tx_end" and row["subject"] in subjects for row in events)
    assert stats["delivered"] + stats["collisions"] + stats["corrupt"] + stats["out_of_range"] == ended


def test_interferer_forces_deferrals():
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),),
        duration_s=10.0,
        noise_sigma_c=0.0,
        interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.021, bits=2048),),
    )
    result, events = run_logged(cfg.plan())
    assert result.stats.deferrals > 0
    assert any(e.kind == "slot_start" and e.detail == "busy" for e in events)
    assert all(r.sensor_id == make_sensor_id(serial=1) for r in result.readings)


def test_lone_interferer_burst_never_reaches_access_point():
    # Bursts at 0.1 + 2k never overlap the node's transmissions, which
    # happen about 0.77 s after each whole second.  A burst only occupies
    # the channel, so it is neither received nor counted.
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),),
        duration_s=10.0,
        noise_sigma_c=0.0,
        interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=2.0, start_s=0.1),),
    )
    result, events = run_logged(cfg.plan())
    assert result.stats.corrupt == 0
    assert result.stats.collisions == 0
    assert len(result.readings) == 10
    assert sum(e.kind == "tx_end" and e.subject == "interferer1" for e in events) == 5
    assert not any(e.subject == "ap" and "from=interferer1" in e.detail for e in events)


def test_superseded_reading_is_replaced():
    # A channel that is busy for whole seconds at a time makes the node
    # defer past the next conversion, so the fresher value wins.
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, RampTrace(30.0, 6.0)),),
        duration_s=8.0,
        noise_sigma_c=0.0,
        interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.05, bits=4096),),
    )
    result, _ = run_logged(cfg.plan())
    assert result.stats.replaced_pending > 0


def _cell(n: int, mac_mode: str, duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, ConstantTrace(36.0)) for i in range(n)),
        duration_s=duration_s,
        mac_mode=mac_mode,
        noise_sigma_c=0.0,
    )


def _durations(max_s: float):
    """Run lengths the clock holds: 0, or at least one tick."""
    return st.just(0.0) | st.floats(min_value=1e-12, max_value=max_s)


def _frame_period(n: int) -> int:
    """A TDMA frame of n nodes at the defaults: a 2 ms beacon and n 19 ms slots."""
    return (2 + 19 * n) * TICKS_PER_S // 1000


ONE_NODE_PERIOD_S = _frame_period(1) / TICKS_PER_S


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    duration_s=_durations(30.0),
)
@example(n=1, mac_mode=TDMA, duration_s=700 * ONE_NODE_PERIOD_S)  # a beacon falls exactly on the end
def test_beacon_count_is_schedule_arithmetic(n, mac_mode, duration_s):
    plan = _cell(n, mac_mode, duration_s).plan()
    result, events = run_logged(plan)
    expected = 0
    if mac_mode == TDMA and plan.duration > 0:
        period = _frame_period(n)
        expected = sum(1 for k in range(plan.duration // period + 2) if k * period <= plan.duration)
    assert result.stats.beacons == expected
    assert not any(e.kind == "beacon" for e in events)


@settings(max_examples=100, deadline=None)
@given(
    distances=st.lists(st.floats(min_value=0.0, max_value=90.0), min_size=1, max_size=8),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    conversion_s=st.sampled_from([0.01, 0.05, 0.75]),
    # At least the 13.3 ms airtime, which an ALOHA node's period must cover.
    extra_s=st.floats(min_value=0.004, max_value=1.0),
    # In sample periods, often not a whole number of them.
    periods=st.integers(min_value=0, max_value=4000).map(lambda n: n / 100),
)
def test_delay_is_the_constant_stages_plus_the_wait_for_a_slot(distances, mac_mode, conversion_s, extra_s, periods):
    # An interference-free cell.  Under TDMA a frame waits less than one
    # frame for its node's slot, also when the sample period is shorter
    # than the frame and a fresher reading replaces a waiting one; a lone
    # ALOHA node never waits.
    if mac_mode == ALOHA:
        distances = distances[:1]
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, distance_m=d) for i, d in enumerate(distances)),
        duration_s=periods * (conversion_s + extra_s),
        mac_mode=mac_mode,
        sample_period_s=conversion_s + extra_s,
        noise_sigma_c=0.0,
        delay_params=PARAMS._replace(sensor_conversion_s=conversion_s),
    )
    plan = cfg.plan()
    result, _ = run_logged(plan)
    constant = plan.conversion + plan.prep + 2 * plan.switch + plan.airtime + plan.serial
    stages = {node.sensor_id: constant + node.propagation for node in plan.nodes}
    for reading in result.readings:
        delay = reading.time - reading.sample_time
        if mac_mode == TDMA:
            assert stages[reading.sensor_id] <= delay < stages[reading.sensor_id] + plan.frame_period
        else:
            assert delay == stages[reading.sensor_id]


class _QueueWatch(_Engine):
    """Records the longest the event queue gets."""

    max_queue = 0

    def _push(self, time, handler, *payload):
        super()._push(time, handler, *payload)
        self.max_queue = max(self.max_queue, len(self._heap))


@pytest.mark.parametrize("duration_s", [60.0, 600.0])
def test_queue_holds_only_what_is_in_flight(duration_s):
    # Sampling instants are not queued, so the queue is bounded by the
    # cell's size, not by the number of samples in the run.
    cfg = _cell(5, TDMA, duration_s)._replace(
        interferers=(
            InterfererSpec("interferer1", distance_m=20.0, period_s=0.3, bits=1024),
            InterfererSpec("interferer2", distance_m=60.0, period_s=0.7, start_s=0.2, bits=256),
        ),
    )
    engine = _QueueWatch(cfg.plan(), [].append)
    result = engine.run()
    assert result.stats.conversions == 5 * duration_s
    assert 0 < engine.max_queue <= 8 * 5 + 2 * 2


def test_conversion_count_stops_at_ceil_bound():
    # 290 * 0.8 < 232.00000000000003 in floats, but the run ends at 232 s
    # in whole ticks, so instant 290 is the end and is not sampled.
    cfg = _cell(1, TDMA, 232.00000000000003)._replace(sample_period_s=0.8)
    assert 290 * 0.8 < cfg.duration_s
    plan = cfg.plan()
    assert plan.duration == 290 * plan.sample_period
    assert run_logged(plan)[0].stats.conversions == 290


@pytest.mark.parametrize(
    "cfg",
    [
        two_nodes(),
        two_nodes(
            mac_mode=ALOHA,
            interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.3, bits=1024),),
        ),
    ],
    ids=["tdma", "aloha_interferer"],
)
def test_sink_receives_the_event_log(tmp_path, cfg):
    lines = []
    run_scenario(cfg.plan(), lines.append)
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    # The sink gets the body of the events.csv that simulate writes.
    assert cmd_simulate(cfg, tmp_path) == 0
    comment, header, *body = (tmp_path / "events.csv").read_text().splitlines(keepends=True)
    assert header == ",".join(EVENT_COLUMNS) + "\n"
    assert "".join(lines) == "".join(body)


_TRUTHS = st.sampled_from(
    [
        BandNoiseTrace(36.0, 38.0),
        BandNoiseTrace(36.5, 37.5),
        SinusoidTrace(37.0, 1.5, 7.0),
        RampTrace(36.0, 3.0),
        ConstantTrace(36.7),
    ]
)


@settings(max_examples=40, deadline=None)
@given(
    truths=st.lists(_TRUTHS, min_size=1, max_size=6),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    heard=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    noise_sigma_c=st.sampled_from([0.1, 0.5]),
)
def test_each_reading_carries_its_own_nodes_truth(truths, mac_mode, heard, seed, noise_sigma_c):
    # Nodes of one cell read different traces, and equal traces share a
    # truth group.  Aligned send-on-ready nodes in range all collide, so
    # under ALOHA only node ``heard`` is in the access point's range.
    heard %= len(truths)
    distance = [10.0 if mac_mode == TDMA or i == heard else 150.0 for i in range(len(truths))]
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, trace, distance_m=distance[i]) for i, trace in enumerate(truths)),
        duration_s=12.0,
        mac_mode=mac_mode,
        seed=seed,
        noise_sigma_c=noise_sigma_c,
    )
    result, _ = run_logged(cfg.plan())
    trace_of = {make_sensor_id(cfg.family_code, node.serial): node.trace for node in cfg.nodes}
    assert len(result.readings) == (len(truths) if mac_mode == TDMA else 1) * 12
    for reading in result.readings:
        assert reading.true_c == trace_of[reading.sensor_id].value(reading.sample_time / TICKS_PER_S, seed)


def test_traces_of_two_kinds_with_equal_fields_keep_their_own_truths():
    # A ramp and a band with equal fields are equal as tuples; each still
    # reads its own truth, so the plan holds one group per node.
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, RampTrace(36.0, 38.0)), NodeSpec("node2", 2, BandNoiseTrace(36.0, 38.0))),
        duration_s=20.0,
        noise_sigma_c=0.0,
    )
    plan = cfg.plan()
    assert [type(trace) for trace in plan.truths] == [RampTrace, BandNoiseTrace]
    assert plan.node_truth == (0, 1)
    result, _ = run_logged(plan)
    trace_of = {node.sensor_id: node.spec.trace for node in plan.nodes}
    assert len(result.readings) == 2 * 20
    for reading in result.readings:
        assert reading.true_c == trace_of[reading.sensor_id].value(reading.sample_time / TICKS_PER_S, cfg.seed)


def test_each_distinct_trace_is_evaluated_once_per_instant(monkeypatch):
    calls = []
    value = BandNoiseTrace.value

    def counted(self, t, seed=0):
        calls.append(t)
        return value(self, t, seed)

    monkeypatch.setattr(BandNoiseTrace, "value", counted)
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i, BandNoiseTrace(36.0, 38.0)) for i in range(1, 51)),
        duration_s=150.0,
        noise_sigma_c=0.1,
    )
    result, _ = run_logged(cfg.plan())
    assert result.stats.conversions == 50 * 150
    assert calls == [float(k) for k in range(150)]


@pytest.mark.parametrize(
    "cfg",
    [
        one_node(ALOHA, interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.3, bits=1024),)),
        load_config(CONFIGS / "interference.conf"),
    ],
    ids=["aloha_interferer", "interference.conf"],
)
def test_frames_are_encoded_only_where_decoded(monkeypatch, cfg):
    # A collided frame never reaches the decoder, so it is never encoded.
    encodes = []
    encode = sim.encode_frame

    def counted(*args):
        encodes.append(args)
        return encode(*args)

    monkeypatch.setattr(sim, "encode_frame", counted)
    result, events = run_logged(cfg.plan())
    assert result.stats.collisions > 0 and result.stats.delivered > 0
    assert len(encodes) == result.stats.delivered + result.stats.corrupt
    assert len(encodes) == sum(e.kind == "rx_deliver" for e in events)


def test_invalid_config_raises_config_error():
    from thermnet.config import ConfigError

    bad = two_nodes(mac_mode="csma")
    with pytest.raises(ConfigError):
        bad.plan()


_interferer = st.builds(
    InterfererSpec,
    name=st.just("interferer"),
    distance_m=st.floats(min_value=0.0, max_value=150.0),
    period_s=st.floats(min_value=0.02, max_value=2.0),
    start_s=st.floats(min_value=0.0, max_value=2.0),
    bits=st.integers(min_value=64, max_value=8192),
)


@settings(max_examples=60, deadline=None)
@given(
    distances=st.lists(st.floats(min_value=0.0, max_value=150.0), min_size=1, max_size=8),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    interferers=st.lists(_interferer, max_size=3),
    sample_period_s=st.floats(min_value=0.75, max_value=3.0),
    duration_s=_durations(40.0),
)
# Runs that end with frames in the radio switch, at the receiver, and
# waiting for a slot while others are on the air or in the serial chain.
@example([10.0, 10.0, 150.0], ALOHA, [], 1.0, 0.7501045)
@example([10.0, 150.0], ALOHA, [], 1.0, 0.76350285)
@example([10.0, 10.0, 150.0], TDMA, [], 1.0, 0.79)
def test_every_frame_ends_in_one_counted_fate(distances, mac_mode, interferers, sample_period_s, duration_s):
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, distance_m=d) for i, d in enumerate(distances)),
        duration_s=duration_s,
        mac_mode=mac_mode,
        sample_period_s=sample_period_s,
        interferers=tuple(intf._replace(name=f"interferer{j}") for j, intf in enumerate(interferers, 1)),
    )
    engine = _Engine(cfg.plan(), [].append)
    s = engine.run().stats
    # What the run left unfinished, read from the engine's own state.
    pending = sum(node.pending is not None for node in engine.nodes)
    switching = on_air = in_receiver = 0
    for _, _, handler, payload in engine._heap:
        if handler == engine._on_tx_start:
            switching += len(payload[0])
        elif handler == engine._on_tx_end:
            on_air += sum(node is not None for _, node, _ in payload[0])  # a burst carries no node
        elif handler in (engine._on_arrival, engine._on_serial_out):
            in_receiver += 1
    # A frame is waiting for its slot or for the radio switch ...
    assert s.frames_queued - s.transmissions - s.replaced_pending == pending + switching
    # ... or is on the air or in the receiver's pipeline.
    assert s.transmissions - (s.delivered + s.collisions + s.corrupt + s.out_of_range) == on_air + in_receiver


# -- metamorphic relations ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    truths=st.lists(_TRUTHS, min_size=2, max_size=6),
    distances=st.lists(st.sampled_from([5.0, 60.0, 150.0]), min_size=6, max_size=6),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    interferers=st.lists(_interferer, max_size=2),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    noise_sigma_c=st.sampled_from([0.1, 0.5]),
)
def test_declaration_order_is_not_physics(truths, distances, mac_mode, interferers, seed, noise_sigma_c):
    # Reversing the node<k> blocks changes only the order nodes are
    # handled in: each sensor's noise is keyed by its serial, and slots
    # are assigned by serial, so every sensor reads the same values.
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", 0x3A00 + i, trace, distance_m=distances[i]) for i, trace in enumerate(truths)),
        duration_s=12.0,
        mac_mode=mac_mode,
        seed=seed,
        noise_sigma_c=noise_sigma_c,
        interferers=tuple(intf._replace(name=f"interferer{j}") for j, intf in enumerate(interferers, 1)),
    )
    runs = [run_logged(c.plan())[0] for c in (cfg, cfg._replace(nodes=cfg.nodes[::-1]))]
    by_sensor = [{} for _ in runs]
    for series, run in zip(by_sensor, runs):
        for reading in run.readings:
            series.setdefault(reading.sensor_id, []).append(reading)
    assert by_sensor[0] == by_sensor[1]
    assert runs[0].ledgers == runs[1].ledgers
    assert [getattr(runs[0].stats, name) for name in sim.SimStats.__slots__] == [
        getattr(runs[1].stats, name) for name in sim.SimStats.__slots__
    ]


@st.composite
def _prefix_cases(draw):
    """A cell whose samples come far more often than duration_s / 64,
    which the whole-run tests do not reach, and a short and a longer run
    length for it."""
    mac_mode = draw(st.sampled_from([TDMA, ALOHA]))
    params = PARAMS._replace(
        sensor_conversion_s=draw(st.sampled_from([1e-3, 0.02])),
        air_data_rate_bps=draw(st.sampled_from([19_200.0, 250_000.0])),
    )
    busy_s = max(params.sensor_conversion_s, airtime(FRAME_BITS, params) if mac_mode == ALOHA else 0.0)
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, RampTrace(36.0, 3.0), distance_m=d)
                    for i, d in enumerate(draw(st.lists(st.sampled_from([5.0, 60.0, 150.0]), min_size=1, max_size=4)))),
        mac_mode=mac_mode,
        sample_period_s=draw(st.floats(min_value=busy_s, max_value=0.3)),
        noise_sigma_c=0.5,
        delay_params=params,
        interferers=tuple(intf._replace(name=f"interferer{j}", period_s=intf.period_s / 10)
                          for j, intf in enumerate(draw(st.lists(_interferer, max_size=2)), 1)),
    )
    short_s = draw(st.floats(min_value=1e-12, max_value=1.5))
    return cfg, short_s, short_s + draw(st.floats(min_value=0.0, max_value=1.0)), draw(st.integers(min_value=0))


@settings(max_examples=60, deadline=None)
@given(_prefix_cases())
def test_a_shorter_run_is_a_prefix(case):
    # The event log of a run of duration d is the log of the same cell run
    # longer, cut after time d: events due exactly at the end run, and
    # a conversion at the end is not started.  The cut is drawn anywhere,
    # or on the time of one of the longer run's events.  A run of
    # duration 0 is empty by definition, so the cut is after 0.
    cfg, short_s, long_s, pick = case
    _, long_events = run_logged(cfg._replace(duration_s=long_s).plan())
    later = [e.time for e in long_events if e.time > 0]
    if later and pick % 2:
        short_s = later[pick % len(later)] / TICKS_PER_S
    plan = cfg._replace(duration_s=short_s).plan()
    _, short_events = run_logged(plan)
    assert short_events == [e for e in long_events if e.time <= plan.duration]


def _same_outcome(a, b) -> None:
    """Two runs delivered the same readings and ended with equal counters
    and ledgers."""
    assert a.readings == b.readings
    assert a.ledgers == b.ledgers
    assert [getattr(a.stats, name) for name in sim.SimStats.__slots__] == [
        getattr(b.stats, name) for name in sim.SimStats.__slots__
    ]


@settings(max_examples=40, deadline=None)
@given(
    truths=st.lists(_TRUTHS, min_size=1, max_size=6),
    distances=st.lists(st.sampled_from([5.0, 60.0, 150.0]), min_size=6, max_size=6),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    interferers=st.lists(_interferer, min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    noise_sigma_c=st.sampled_from([0.0, 0.5]),
)
def test_a_far_interferer_is_no_interferer(truths, distances, mac_mode, interferers, seed, noise_sigma_c):
    # Bursts from 10 km away are beyond the access point's range and every
    # node's hearing, so they only add their own rows to the event log.
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, trace, distance_m=distances[i]) for i, trace in enumerate(truths)),
        duration_s=12.0,
        mac_mode=mac_mode,
        seed=seed,
        noise_sigma_c=noise_sigma_c,
    )
    far = tuple(intf._replace(name=f"interferer{j}", distance_m=10_000.0) for j, intf in enumerate(interferers, 1))
    quiet, _ = run_logged(cfg.plan())
    noisy, events = run_logged(cfg._replace(interferers=far).plan())
    assert any(e.subject == "interferer1" for e in events)
    _same_outcome(quiet, noisy)


_UNBANDED = st.sampled_from([SinusoidTrace(37.0, 1.5, 7.0), RampTrace(36.0, 3.0), ConstantTrace(36.7)])


@settings(max_examples=40, deadline=None)
@given(
    truths=st.lists(_UNBANDED, min_size=1, max_size=6),
    distances=st.lists(st.sampled_from([5.0, 60.0, 150.0]), min_size=6, max_size=6),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    interferers=st.lists(_interferer, max_size=2),
    seeds=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=2, max_size=2),
)
def test_the_seed_only_draws_noise(truths, distances, mac_mode, interferers, seeds):
    # With no sensor noise and no band trace, nothing in the run is drawn
    # from the seed: the event log and the whole outcome are the same at
    # any seed.
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, trace, distance_m=distances[i]) for i, trace in enumerate(truths)),
        duration_s=12.0,
        mac_mode=mac_mode,
        noise_sigma_c=0.0,
        interferers=tuple(intf._replace(name=f"interferer{j}") for j, intf in enumerate(interferers, 1)),
    )
    (a, a_events), (b, b_events) = (run_logged(cfg._replace(seed=seed).plan()) for seed in seeds)
    assert a_events == b_events
    _same_outcome(a, b)

"""Event engine tests: medium semantics, sensor physics, and whole-run
properties (determinism, delay agreement, collision behavior, energy
conservation against an event-log recompute).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import access_point_ledger, ledger_from_events
from thermnet.config import ALOHA, TDMA, InterfererSpec, NodeSpec, ScenarioConfig
from thermnet.delays import DelayParams, airtime, total_delay
from thermnet.frames import FRAME_BITS, make_sensor_id
from thermnet.mac import build_schedule
from thermnet.sim import (
    Medium,
    Transmission,
    _Engine,
    access_point_forward,
    medium_transmit,
    run_scenario,
    sense_and_quantize,
)
from thermnet.traces import BandNoiseTrace, ConstantTrace, RampTrace

PARAMS = DelayParams()


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


def _tx(sender, start, bits=FRAME_BITS, distance=10.0):
    return Transmission(sender, start, start + airtime(bits, PARAMS), bytes(32), distance)


def test_single_transmission_is_clean():
    medium = Medium()
    tx = medium_transmit(medium, _tx("a", 0.0))
    assert not tx.collided


def test_tiny_overlap_destroys_both():
    medium = Medium()
    first = _tx("a", 0.0)
    second = _tx("b", first.end_s - 1e-6)
    medium_transmit(medium, first)
    medium_transmit(medium, second)
    assert first.collided and second.collided


def test_back_to_back_is_not_overlap():
    medium = Medium()
    first = _tx("a", 0.0)
    second = _tx("b", first.end_s)
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
    medium_transmit(medium, _tx("a", 0.0, distance=120.0))
    t = 0.001
    assert medium.busy_at(t, 50.0)  # 70 m from the sender
    assert not medium.busy_at(t, 10.0)  # 110 m away, inaudible
    assert not medium.busy_at(10.0, 50.0)  # long since over


def test_zero_length_transmission_rejected():
    with pytest.raises(ValueError):
        medium_transmit(Medium(), Transmission("a", 1.0, 1.0, bytes(32), 10.0))


# -- sensor physics ----------------------------------------------------


def test_quantize_constant_26():
    assert sense_and_quantize(ConstantTrace(26.0), 3.0, seed=1) == 416


def test_quantize_zero():
    assert sense_and_quantize(ConstantTrace(0.0), 0.0, seed=1) == 0


def test_quantize_band_bounds():
    trace = BandNoiseTrace(26.0, 30.0)
    values = [sense_and_quantize(trace, float(t), seed=9) for t in range(500)]
    assert all(416 <= v <= 480 for v in values)
    assert len(set(values)) > 10


def test_quantize_clamps_to_device_range():
    assert sense_and_quantize(ConstantTrace(500.0), 0.0, seed=1) == 2000
    assert sense_and_quantize(ConstantTrace(-500.0), 0.0, seed=1) == -880
    assert sense_and_quantize(ConstantTrace(1e308), 0.0, seed=1) == 2000


def test_noise_is_pure_in_time_and_seed():
    trace = ConstantTrace(37.0)
    a = sense_and_quantize(trace, 5.0, seed=4, noise_sigma_c=0.1)
    assert a == sense_and_quantize(trace, 5.0, seed=4, noise_sigma_c=0.1)
    different = [sense_and_quantize(trace, 5.0, seed=s, noise_sigma_c=0.1) for s in range(30)]
    assert len(set(different)) > 1


def test_forward_pipeline_stage_times():
    serial_start, usb_start, out = access_point_forward(1.0, FRAME_BITS, PARAMS)
    assert serial_start - 1.0 == pytest.approx(130e-6, abs=1e-12)
    assert usb_start - serial_start == pytest.approx(256 / 19_200, abs=1e-12)
    assert out - usb_start == pytest.approx(256 / 12e6, abs=1e-12)


def test_forward_fast_serial_limit():
    fast = replace(PARAMS, serial_rate_bps=1e15)
    _, _, out = access_point_forward(0.0, FRAME_BITS, fast)
    assert out == pytest.approx(130e-6 + 256 / 12e6, abs=1e-9)


# -- whole runs --------------------------------------------------------


def test_sixty_readings_in_sixty_seconds():
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 0x11A3, BandNoiseTrace(26.0, 30.0)),),
        duration_s=60.0,
        seed=7,
        noise_sigma_c=0.0,
    )
    result = run_scenario(cfg)
    assert len(result.readings) == 60
    assert [r.sequence for r in result.readings] == list(range(60))


def test_zero_duration_run_is_empty():
    result = run_scenario(two_nodes(duration_s=0.0))
    assert result.events == []
    assert result.readings == []
    assert all(led.total_j == 0.0 for led in result.ledgers.values())


def test_readings_partition_by_sensor():
    result = run_scenario(two_nodes(duration_s=60.0))
    by_id = {}
    for reading in result.readings:
        by_id.setdefault(reading.sensor_id.hex(), []).append(reading)
    assert set(by_id) == {make_sensor_id(serial=1).hex(), make_sensor_id(serial=2).hex()}
    assert {r.temp_c for r in by_id[make_sensor_id(serial=1).hex()]} == {36.5}
    assert {r.temp_c for r in by_id[make_sensor_id(serial=2).hex()]} == {39.0}


def test_identical_runs_are_identical():
    a = run_scenario(two_nodes())
    b = run_scenario(two_nodes())
    assert a.events == b.events
    assert a.readings == b.readings
    assert a.ledgers == b.ledgers


def test_different_seed_changes_noisy_run():
    noisy = two_nodes(noise_sigma_c=0.1)
    a = run_scenario(noisy)
    b = run_scenario(replace(noisy, seed=999))
    assert [r.raw for r in a.readings] != [r.raw for r in b.readings]


def test_measured_stages_match_closed_form():
    result = run_scenario(two_nodes(duration_s=20.0))
    assert result.delay_samples
    for sample in result.delay_samples:
        measured = sample.budget()
        closed = total_delay(FRAME_BITS, sample.distance_m, PARAMS)
        for got, want in zip(measured.terms, closed.terms):
            assert abs(got - want) < 1e-9
        assert abs(measured.total - closed.total) < 1e-9
        assert sample.queue_wait_s >= 0


def test_reading_total_delay_matches_closed_form():
    result = run_scenario(two_nodes(duration_s=20.0))
    for reading in result.readings:
        node_distance = {1: 10.0, 2: 25.0}[reading.sensor_id.serial]
        expected = total_delay(FRAME_BITS, node_distance, PARAMS).total
        assert abs(reading.total_delay_s - expected) < 1e-9


def test_collision_free_under_slotting():
    for n in (1, 2, 4, 8, 16):
        cfg = ScenarioConfig(
            nodes=tuple(NodeSpec(f"node{i}", i + 1, ConstantTrace(36.0)) for i in range(n)),
            duration_s=30.0,
            noise_sigma_c=0.0,
        )
        result = run_scenario(cfg)
        assert result.stats.collisions == 0
        assert not any(e.kind == "rx_collision" for e in result.events)


def test_unslotted_phase_aligned_nodes_collide():
    result = run_scenario(two_nodes(mac_mode="aloha", duration_s=10.0))
    assert result.stats.collisions >= 1
    assert any(e.kind == "rx_collision" for e in result.events)
    assert result.stats.delivered == 0


def test_event_log_is_ordered_and_causal():
    result = run_scenario(two_nodes(duration_s=15.0))
    times = [e.time_s for e in result.events]
    assert times == sorted(times)
    assert [e.seq for e in result.events] == list(range(len(result.events)))
    # Every transmission runs start -> end -> delivery, strictly forward.
    for subject in (make_sensor_id(serial=1).hex(), make_sensor_id(serial=2).hex()):
        starts = [e.time_s for e in result.events if e.kind == "tx_start" and e.subject == subject]
        ends = [e.time_s for e in result.events if e.kind == "tx_end" and e.subject == subject]
        assert len(starts) == len(ends)
        for s, e in zip(starts, ends):
            assert e - s == pytest.approx(airtime(FRAME_BITS, PARAMS), abs=1e-12)


def test_transmissions_only_inside_own_slots():
    # The bursts make both nodes defer dozens of slots in a row.
    bursts = InterfererSpec("interferer1", distance_m=5.0, period_s=2.0, start_s=0.75, bits=18900)
    for cfg in (two_nodes(duration_s=25.0), two_nodes(duration_s=25.0, interferers=(bursts,))):
        result = run_scenario(cfg)
        schedule = result.schedule
        slots = {nid.hex(): schedule.slot_offset_s(nid) for nid in schedule.assignments}
        period = schedule.frame_period_s
        for event in result.events:
            if event.kind != "tx_start" or event.subject == "interferer1":
                continue
            offset = slots[event.subject]
            # 130 us after the slot edge, modulo the frame period.
            pos = (event.time_s - PARAMS.radio_switch_delay_s - offset) % period
            assert min(pos, period - pos) < 1e-6


def test_energy_ledger_matches_event_log_recompute():
    cfg = two_nodes(duration_s=45.0, noise_sigma_c=0.1)
    result = run_scenario(cfg)
    for node in cfg.nodes:
        subject = node.sensor_id(cfg.family_code).hex()
        want = ledger_from_events(result, cfg, subject)
        got = result.ledgers[subject]
        assert abs(got.total_j - want.total_j) < 1e-9
        assert abs(got.transmit_j - want.transmit_j) < 1e-9
        assert abs(got.sensing_j - want.sensing_j) < 1e-9
        assert abs(got.mcu_j - want.mcu_j) < 1e-9
        assert abs(got.idle_j - want.idle_j) < 1e-9
    ap = access_point_ledger(result, cfg)
    assert abs(result.ledgers["ap"].total_j - ap.total_j) < 1e-9
    assert result.ledgers["ap"].receive_j == ap.receive_j


def test_out_of_range_node_is_never_delivered():
    cfg = two_nodes()
    cfg = replace(cfg, nodes=(replace(cfg.nodes[0], distance_m=250.0), cfg.nodes[1]))
    result = run_scenario(cfg)
    assert result.stats.out_of_range > 0
    delivered_ids = {r.sensor_id.serial for r in result.readings}
    assert delivered_ids == {2}


def test_interferer_forces_deferrals():
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),),
        duration_s=10.0,
        noise_sigma_c=0.0,
        interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.021, bits=2048),),
    )
    result = run_scenario(cfg)
    assert result.stats.deferrals > 0
    assert any(e.kind == "rssi_sample" and e.detail == "busy" for e in result.events)
    assert all(r.sensor_id.serial == 1 for r in result.readings)


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
    result = run_scenario(cfg)
    assert result.stats.corrupt == 0
    assert result.stats.collisions == 0
    assert len(result.readings) == 10
    assert sum(e.kind == "tx_end" and e.subject == "interferer1" for e in result.events) == 5
    assert not any(e.subject == "ap" and "from=interferer1" in e.detail for e in result.events)


def test_superseded_reading_is_replaced():
    # A channel that is busy for whole seconds at a time makes the node
    # defer past the next conversion, so the fresher value wins.
    cfg = ScenarioConfig(
        nodes=(NodeSpec("node1", 1, RampTrace(30.0, 6.0)),),
        duration_s=8.0,
        noise_sigma_c=0.0,
        interferers=(InterfererSpec("interferer1", distance_m=5.0, period_s=0.05, bits=4096),),
    )
    result = run_scenario(cfg)
    assert result.stats.replaced_pending > 0


def _cell(n: int, mac_mode: str, duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, ConstantTrace(36.0)) for i in range(n)),
        duration_s=duration_s,
        mac_mode=mac_mode,
        noise_sigma_c=0.0,
    )


ONE_NODE_PERIOD_S = build_schedule(_cell(1, TDMA, 0.0).sensor_ids(), FRAME_BITS, PARAMS).frame_period_s


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    mac_mode=st.sampled_from([TDMA, ALOHA]),
    duration_s=st.floats(min_value=0.0, max_value=30.0),
)
@example(n=1, mac_mode=TDMA, duration_s=700 * ONE_NODE_PERIOD_S)  # a beacon falls exactly on the end
def test_beacon_count_is_schedule_arithmetic(n, mac_mode, duration_s):
    cfg = _cell(n, mac_mode, duration_s)
    result = run_scenario(cfg)
    expected = 0
    if mac_mode == TDMA and duration_s > 0:
        period = build_schedule(cfg.sensor_ids(), FRAME_BITS, PARAMS).frame_period_s
        expected = sum(1 for k in range(int(duration_s / period) + 2) if k * period <= duration_s)
    assert result.stats.beacons == expected
    assert not any(e.kind == "beacon" for e in result.events)


class _QueueWatch(_Engine):
    """Records the longest the event queue gets."""

    max_queue = 0

    def _push(self, time_s, handler, *payload):
        super()._push(time_s, handler, *payload)
        self.max_queue = max(self.max_queue, len(self._heap))


@pytest.mark.parametrize("duration_s", [60.0, 600.0])
def test_queue_holds_only_what_is_in_flight(duration_s):
    # Sampling instants are not queued, so the queue is bounded by the
    # cell's size, not by the number of samples in the run.
    cfg = replace(
        _cell(5, TDMA, duration_s),
        interferers=(
            InterfererSpec("interferer1", distance_m=20.0, period_s=0.3, bits=1024),
            InterfererSpec("interferer2", distance_m=60.0, period_s=0.7, start_s=0.2, bits=256),
        ),
    )
    engine = _QueueWatch(cfg)
    result = engine.run()
    assert result.stats.conversions == 5 * duration_s
    assert 0 < engine.max_queue <= 8 * 5 + 2 * 2


def test_conversion_count_stops_at_ceil_bound():
    # 290 * 0.8 < 232.00000000000003, but the float quotient is exactly
    # 290, so the ceil bound, not the ``t < end`` test, ends sampling.
    cfg = replace(_cell(1, TDMA, 232.00000000000003), sample_period_s=0.8)
    assert 290 * 0.8 < cfg.duration_s
    assert run_scenario(cfg).stats.conversions == 290


def test_invalid_config_raises_config_error():
    from thermnet.config import ConfigError

    bad = two_nodes(mac_mode="csma")
    with pytest.raises(ConfigError):
        run_scenario(bad)


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
    duration_s=st.floats(min_value=0.0, max_value=40.0),
)
def test_every_frame_ends_in_one_counted_fate(distances, mac_mode, interferers, sample_period_s, duration_s):
    cfg = ScenarioConfig(
        nodes=tuple(NodeSpec(f"node{i}", i + 1, distance_m=d) for i, d in enumerate(distances)),
        duration_s=duration_s,
        mac_mode=mac_mode,
        sample_period_s=sample_period_s,
        interferers=tuple(replace(intf, name=f"interferer{j}") for j, intf in enumerate(interferers, 1)),
    )
    s = run_scenario(cfg).stats
    n = len(distances)
    # Each node may still hold one frame for its slot when the run ends ...
    assert 0 <= s.frames_queued - s.transmissions - s.replaced_pending <= n
    # ... and have one frame on the air or in the receiver's pipeline.
    assert 0 <= s.transmissions - (s.delivered + s.collisions + s.corrupt + s.out_of_range) <= n

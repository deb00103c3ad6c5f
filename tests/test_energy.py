"""Energy model tests: every figure is V * i * t by hand."""

from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import run_logged
from thermnet.config import NodeSpec, ScenarioConfig
from thermnet.delays import DelayParams
from thermnet.energy import (
    DevicePowerProfile,
    EnergyLedger,
    energy,
    energy_sweep,
    power,
)
from thermnet.frames import make_sensor_id
from thermnet.traces import ConstantTrace

PROFILE = DevicePowerProfile()
PARAMS = DelayParams()


def test_power_is_v_times_i():
    assert power(9.0, 0.016) == pytest.approx(0.144, abs=1e-12)
    assert power(9.0, 0.036) == pytest.approx(0.324, abs=1e-12)


def test_receive_draws_more_than_transmit():
    assert power(9.0, PROFILE.radio_i_receive_a) > power(9.0, PROFILE.radio_i_transmit_a)


def test_energy_is_p_times_t():
    assert energy(0.144, 2.0) == 0.288
    with pytest.raises(ValueError):
        energy(1.0, -0.5)


def test_one_frame_transmit_energy():
    # 9 V * 0.016 A over the 256-bit airtime.
    exact = Fraction(9) * Fraction(16, 1000) * Fraction(256, 19_200)
    got = energy(power(PROFILE.supply_voltage_v, PROFILE.radio_i_transmit_a), 256 / 19_200)
    assert abs(got - float(exact)) < 1e-9
    assert abs(got - 1.92e-3) < 1e-9


def test_all_idle_states_share_one_bucket():
    # The first conversion ends at 0.75 s, so a 0.5 s run is idle throughout.
    config = ScenarioConfig(nodes=(NodeSpec("node1", 1, ConstantTrace(37.0)),), duration_s=0.5)
    ledger = run_logged(config.plan())[0].ledgers[make_sensor_id(serial=1).hex()]
    expected = 9.0 * (1e-6 + 8e-9 + 0.001) * 0.5
    assert ledger.idle_j == pytest.approx(expected, abs=1e-12)
    assert ledger.transmit_j == ledger.receive_j == ledger.sensing_j == ledger.mcu_j == 0.0


def test_total_is_sum_of_buckets():
    ledger = EnergyLedger(1.0, 2.0, 3.0, 4.0, 5.0)
    assert ledger.total_j == 15.0


def test_sweep_doubling_reps_doubles_active_columns():
    rows = {(r.bits, r.repetitions): r for r in energy_sweep([256], [1, 2], PROFILE, PARAMS)}
    single, double = rows[(256, 1)], rows[(256, 2)]
    assert double.e_tx_j == pytest.approx(2 * single.e_tx_j, rel=1e-12)
    assert double.e_rx_j == pytest.approx(2 * single.e_rx_j, rel=1e-12)


def test_sweep_idle_fixed_duration_is_bit_independent():
    rows = energy_sweep([64, 256, 1024], [1], PROFILE, PARAMS, duration_s=30.0)
    idles = {r.e_idle_j for r in rows}
    assert idles == {9.0 * 1e-6 * 30.0}


def test_sweep_columns_nondecreasing_in_work():
    rows = energy_sweep([64, 128, 256], [1, 2, 4], PROFILE, PARAMS, duration_s=60.0)
    ordered = sorted(rows, key=lambda r: r.bits * r.repetitions)
    for before, after in zip(ordered, ordered[1:]):
        assert after.e_tx_j >= before.e_tx_j
        assert after.e_rx_j >= before.e_rx_j
        assert after.e_idle_j >= before.e_idle_j
        assert after.e_total_j >= before.e_total_j


def test_sweep_rejects_empty_axes():
    with pytest.raises(ValueError):
        energy_sweep([], [1], PROFILE, PARAMS)
    with pytest.raises(ValueError):
        energy_sweep([256], [], PROFILE, PARAMS)


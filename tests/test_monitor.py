"""Receiving-side tests: alert semantics, and agreement
metrics with a Monte-Carlo oracle.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import _slope_c_per_min_oracle, evaluate_alerts_oracle, rounded, run_logged
from thermnet.config import NodeSpec, ScenarioConfig
from thermnet.csvio import TICKS_PER_S
from thermnet.frames import TEMP_LSB_C, make_sensor_id
from thermnet.monitor import (
    Alert,
    AlertRule,
    Reading,
    agreement,
    evaluate_alerts,
)
from thermnet.rng import gauss
from thermnet.traces import RampTrace

RULE = AlertRule()


def reading(serial, t, temp_c, seq=None, true_c=36.5):
    """A reading delivered at ``t`` seconds, sampled 0.777 s before."""
    raw = round(temp_c / 0.0625)
    time = round(t * TICKS_PER_S)
    return Reading(
        sensor_id=make_sensor_id(serial=serial),
        time=time,
        raw=raw,
        sequence=seq if seq is not None else int(t),
        sample_time=time - 777_000_000_000,
        true_c=true_c,
    )


def series_from(temps, serial=1, true_c=36.5):
    return [reading(serial, t, c, seq=t, true_c=true_c) for t, c in enumerate(temps)]


# -- alerts ------------------------------------------------------------


def test_constant_normal_temperature_no_alerts():
    assert evaluate_alerts(series_from([37.0] * 20), RULE) == []


def test_step_fires_exactly_one_high_temp():
    temps = [37.0] * 10 + [39.0] * 10
    alerts = [a for a in evaluate_alerts(series_from(temps), RULE) if a.kind == "high_temp"]
    assert len(alerts) == 1
    assert alerts[0].trigger_time == 10 * TICKS_PER_S
    assert alerts[0].value == 39.0


def test_square_wave_fires_once_per_excursion():
    temps = []
    for _ in range(4):
        temps += [36.5] * 5 + [38.5] * 5
    alerts = [a for a in evaluate_alerts(series_from(temps), RULE) if a.kind == "high_temp"]
    assert len(alerts) == 4


def test_ramp_triggers_rapid_rise_within_one_window():
    # 1 degC per minute from t=0 against a 0.5-per-minute rule.  Early
    # slopes over the quantized staircase are jumpy, so only the trigger
    # time and threshold crossing are pinned here.
    temps = [36.0 + t / 60.0 for t in range(120)]
    alerts = [a for a in evaluate_alerts(series_from(temps), RULE) if a.kind == "rapid_rise"]
    assert alerts
    assert alerts[0].trigger_time <= RULE.rise_window_s * TICKS_PER_S
    assert alerts[0].value >= RULE.rise_rate_c_per_min


def test_rise_rearms_after_plateau():
    up = [36.0 + t / 60.0 for t in range(60)]
    flat = [up[-1]] * 120
    up2 = [flat[-1] + t / 60.0 for t in range(60)]
    alerts = [a for a in evaluate_alerts(series_from(up + flat + up2), RULE) if a.kind == "rapid_rise"]
    assert len(alerts) == 2


def test_rise_alerts_match_stdlib_regression_oracle():
    # Replay the trailing-window scan with statistics.linear_regression
    # as the independent slope and verify identical trigger decisions.
    rng = random.Random(11)
    temps = [36.0 + 0.2 * math.sin(t / 7.0) + 0.05 * rng.random() for t in range(40)]
    series = series_from(temps)
    rule = AlertRule(rise_rate_c_per_min=0.3, rise_window_s=8.0)
    got = [(a.trigger_time, a.value) for a in evaluate_alerts(series, rule) if a.kind == "rapid_rise"]

    expected = []
    armed = True
    for i, r in enumerate(series):
        window = [p for p in series[: i + 1] if p.time >= r.time - 8 * TICKS_PER_S]
        slope = None
        if len(window) >= 2:
            fit = statistics.linear_regression(
                [p.time / TICKS_PER_S for p in window], [p.temp_c for p in window]
            )
            slope = fit.slope * 60.0
        if slope is not None and slope >= rule.rise_rate_c_per_min:
            if armed:
                expected.append((r.time, slope))
                armed = False
        else:
            armed = True

    assert expected
    assert len(got) == len(expected)
    for (got_t, got_v), (exp_t, exp_v) in zip(got, expected):
        assert got_t == exp_t
        assert got_v == pytest.approx(exp_v, abs=1e-9)


@pytest.mark.parametrize("bad_time", [9_500_000_000_000, -1], ids=["9.5", "-1.0"])
def test_alerts_reject_unordered_series(bad_time):
    # A negative time goes first, where only its sign is wrong; 9.5 s
    # goes last, after 11 s.
    bad = Reading(make_sensor_id(serial=1), bad_time, 592, 99, 0, 0.0)
    series = series_from([37.0] * 12)
    series = [bad] + series if bad_time < 0 else series + [bad]
    with pytest.raises(ValueError, match="time-ordered"):
        evaluate_alerts(series, RULE)


def ramp_series(start, rate, moves):
    """Readings from tick ``start`` on a line of slope ``rate`` degC/min:
    each move advances ``steps`` count periods (0.0625 * 60 / rate s each,
    whole ticks at the rates drawn here) and ``steps`` counts, then offsets
    that one reading by ``bump`` counts."""
    sid = make_sensor_id(serial=1)
    period = round(TEMP_LSB_C * 60.0 / rate * TICKS_PER_S)
    series = [Reading(sid, start, 584, 0, start, 0.0)]
    done = 0
    for k, (steps, bump) in enumerate(moves, 1):
        done += steps
        t = start + done * period
        series.append(Reading(sid, t, 584 + done + bump, k, t, 0.0))
    return series


def window_ticks(rule):
    """The rule's window in ticks, exactly."""
    return Fraction(rule.rise_window_s) * TICKS_PER_S


@st.composite
def alert_cases(draw):
    """A time-ordered series and a rule, with times in ticks.

    The window is a whole number of quarter seconds, so readings land
    exactly on its start, or any float number of seconds, whose edge then
    falls between two ticks.  Series start at 0 s, near 1e3 s, or at 1e9
    or 3.3e9 s, where a time squared has 143 bits.  A random walk mixes
    ties, exact window lengths, whole quarter seconds, gaps longer than
    the window and steps of any tick count.  A ramp of up to 300 readings
    sits exactly on the rise threshold, bar the odd reading a count off,
    with ties and gaps longer than the window.  Either may then put the
    rate on the exact slope of one of its windows.
    """
    quarter = TICKS_PER_S // 4
    window_s = draw(st.sampled_from([0.25, 0.75, 2.0, 8.0, 60.0]) | st.floats(min_value=1e-12, max_value=100.0))
    rule = AlertRule(
        high_threshold_c=draw(st.sampled_from([36.5, 37.0, 38.0])),
        rise_rate_c_per_min=draw(st.sampled_from([0.05, 0.5, 3.0, 30.0])),
        rise_window_s=window_s,
    )
    window = int(window_ticks(rule))
    start = draw(st.sampled_from([0, 1000 * TICKS_PER_S + quarter, 10**9 * TICKS_PER_S, 33 * 10**8 * TICKS_PER_S]))
    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        period = round(TEMP_LSB_C * 60.0 / rule.rise_rate_c_per_min * TICKS_PER_S)
        gap = -(-window // period) + 1
        moves = [
            (rnd.choice([0, 1, 1, 1, 1, 2, gap]), rnd.choice([0] * 12 + [-1, 1]))
            for _ in range(draw(st.integers(1, 300)))
        ]
        return rate_on_a_slope(draw, ramp_series(start, rule.rise_rate_c_per_min, moves), rule)
    step = st.one_of(
        st.just(0),
        st.just(window),
        st.integers(1, 2 * (window // quarter) + 2).map(lambda q: q * quarter),
        st.integers(window + 1, 4 * window + 1),
        st.integers(0, 2 * window),
    )
    sid = make_sensor_id(serial=1)
    t, raw = start, 584
    series = [Reading(sid, t, raw, 0, t, 0.0)]
    moves = draw(st.lists(st.tuples(step, st.integers(-6, 6)), max_size=80))
    for k, (dt, d_raw) in enumerate(moves, 1):
        t, raw = t + dt, raw + d_raw
        series.append(Reading(sid, t, raw, k, t, 0.0))
    return rate_on_a_slope(draw, series, rule)


def rate_on_a_slope(draw, series, rule):
    """Maybe move the rule's rate onto the exact slope of one of the
    series' windows, rounded, or the next float either side of that, so
    the alert hangs on the last bits of that slope."""
    i = draw(st.integers(0, len(series) - 1))
    t = series[i].time
    window = [r for r in series[: i + 1] if r.time >= t - window_ticks(rule)]
    slope = _slope_c_per_min_oracle(window)
    slope = rounded(slope) if slope is not None else None
    if draw(st.booleans()) and slope is not None and 0 < slope < math.inf:
        rate = math.nextafter(slope, draw(st.sampled_from([slope, math.inf, 0.0])))
        rule = rule._replace(rise_rate_c_per_min=rate)
    return series, rule


def threshold_ramp(start):
    # 122 readings one count period apart at 0.5 degC/min, with a tie, a
    # gap longer than the 60 s window and one reading a count high.
    moves = [(1, 0)] * 60 + [(0, 0), (10, 0)] + [(1, 0)] * 30 + [(1, 1)] + [(1, 0)] * 28
    return ramp_series(start, 0.5, moves), RULE


def tied_series():
    # Nine readings at one time: the window has no slope, however large
    # the ninth reading's jump.
    t = 115_997_508_025
    sid = make_sensor_id(serial=1)
    raws = [584] * 8 + [608]
    return [Reading(sid, t, raw, k, t, 0.0) for k, raw in enumerate(raws)], RULE


def extreme_series():
    # A jump of 2**1000 counts in one tick, whose slope overflows to inf,
    # then on to 10**300 ticks: exact sums need no range limit.
    sid = make_sensor_id(serial=1)
    times_raws = [(0, -880), (1, 1 << 1000), (10**300, 2000), (10**300, -880), (15 * 10**299, 1 << 40)]
    series = [Reading(sid, t, raw, k, t, 0.0) for k, (t, raw) in enumerate(times_raws)]
    return series, RULE._replace(rise_window_s=1e301)


def test_all_tied_window_has_no_slope():
    series, rule = tied_series()
    expected = [Alert("high_temp", series[8].sensor_id, series[8].time, 38.0)]
    assert evaluate_alerts(series, rule) == expected
    assert evaluate_alerts_oracle(series, rule) == expected


def test_threshold_ramp_fires_on_the_exact_slope():
    # The readings sit exactly on the 0.5 degC/min line, so every window
    # of two or more times has exactly the rule's rate.  It fires at
    # 8.277 s; again at 533.277 s, after the gap left one reading in the
    # window; and at 825.777 s, once the reading a count high, which had
    # pulled the slope below 0.5, has left the window.
    series, rule = threshold_ramp(777_000_000_000)
    rises = [a for a in evaluate_alerts(series, rule) if a.kind == "rapid_rise"]
    assert rises == [a for a in evaluate_alerts_oracle(series, rule) if a.kind == "rapid_rise"]
    assert [a.trigger_time for a in rises] == [8_277_000_000_000, 533_277_000_000_000, 825_777_000_000_000]
    assert [a.value for a in rises] == [0.5] * 3


@settings(max_examples=300, deadline=None)
@given(alert_cases())
@example(threshold_ramp(777_000_000_000))
@example(threshold_ramp(10**9 * TICKS_PER_S))
@example(threshold_ramp(33 * 10**8 * TICKS_PER_S))
@example(tied_series())
@example(extreme_series())
def test_alerts_equal_quadratic_oracle(case):
    series, rule = case
    assert evaluate_alerts(series, rule) == evaluate_alerts_oracle(series, rule)


# -- agreement ---------------------------------------------------------


@given(st.permutations(list(range(12))))
def test_agreement_is_arrival_order_invariant(order):
    rng = random.Random(4)
    temps = [36.0 + rng.random() for _ in range(12)]
    report = agreement([reading(1, index, temps[index], seq=index) for index in order])
    baseline = agreement(series_from(temps))
    assert report.mae_c == baseline.mae_c
    assert report.max_err_c == baseline.max_err_c


def test_exact_series_has_zero_error():
    series = series_from([36.5] * 10, true_c=36.5)
    report = agreement(series)
    assert report.mae_c == 0.0
    assert report.max_err_c == 0.0
    assert report.n == 10


def test_quantization_bound_zero_noise():
    series = series_from([36.53] * 50, true_c=36.53)  # quantizes to 36.5
    report = agreement(series)
    assert report.mae_c <= 0.03125
    assert report.max_err_c <= 0.03125


def test_noise_mae_matches_folded_normal_oracle():
    sigma, truth, n = 0.1, 37.0, 2000
    series = []
    for k in range(n):
        noisy = truth + sigma * gauss(77, k)
        series.append(reading(1, k, round(noisy / 0.0625) * 0.0625, seq=k, true_c=truth))
    report = agreement(series)
    errors = [abs(r.temp_c - truth) for r in series]
    stderr = statistics.pstdev(errors) / math.sqrt(n)
    bound = sigma * math.sqrt(2 / math.pi) + 0.03125
    assert report.mae_c <= bound + 3 * stderr
    # Quantization cannot push the mean error further than half a step
    # below the folded-normal mean either.
    assert report.mae_c >= sigma * math.sqrt(2 / math.pi) - 0.03125 - 3 * stderr


def test_agreement_uses_sample_time_not_delivery_time():
    # The truth rises between sampling and delivery.  Each reading
    # carries the truth at its conversion start, so a noiseless ramp
    # that sits on whole counts at every sample agrees exactly.
    trace = RampTrace(36.0, 3.75)  # one count (0.0625 degC) per second
    config = ScenarioConfig(nodes=(NodeSpec("node1", 1, trace),), duration_s=10.0, noise_sigma_c=0.0)
    series = run_logged(config.plan())[0].readings
    assert len(series) == 10
    assert [r.true_c for r in series] == [trace.value(r.sample_time / TICKS_PER_S) for r in series]
    assert all(r.true_c < trace.value(r.time / TICKS_PER_S) for r in series)
    assert agreement(series).max_err_c == 0.0


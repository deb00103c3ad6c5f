"""Latency budget tests against exact rational arithmetic.

The oracle below rebuilds every term with Fraction, so the expected
floats carry no accumulated rounding; the implementation must match
them at 1e-12 or tighter.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thermnet.delays import (
    DelayBudget,
    DelayParams,
    airtime,
    mcu_prep_delay,
    propagation_delay,
    serial_delay,
    total_delay,
    usb_delay,
)

DEFAULTS = DelayParams()


def exact_terms(bits: int, distance_m) -> list[Fraction]:
    """All eight default-parameter terms as exact rationals."""
    return [
        Fraction(316, 8_000_000),
        Fraction(130, 10**6),
        Fraction(distance_m) / Fraction(2998, 10) / 10**6,
        Fraction(bits, 19_200),
        Fraction(130, 10**6),
        Fraction(bits, 19_200),
        Fraction(3, 4),
        Fraction(bits, 12_000_000),
    ]


def test_mcu_prep_term():
    assert abs(mcu_prep_delay(DEFAULTS) - 3.95e-5) < 1e-12
    assert mcu_prep_delay(DEFAULTS) == float(Fraction(316, 8_000_000))


def test_airtime_256():
    expected = float(Fraction(256, 19_200))
    assert abs(airtime(256, DEFAULTS) - expected) < 1e-12
    # Around a third of the 40 ms the slot layout budgets for it.
    assert 0.0133 < airtime(256, DEFAULTS) < 0.0134


def test_airtime_zero_bits():
    assert airtime(0, DEFAULTS) == 0.0


def test_propagation_examples():
    for distance, expected in [(1.0, 1 / 2.998e8), (10.0, 10 / 2.998e8), (100.0, 100 / 2.998e8)]:
        assert abs(propagation_delay(distance, DEFAULTS) - expected) < 1e-15


def test_serial_and_usb_terms():
    assert serial_delay(256, DEFAULTS) == airtime(256, DEFAULTS)
    assert abs(usb_delay(256, DEFAULTS) - float(Fraction(256, 12_000_000))) < 1e-18


def test_total_at_defaults():
    budget = total_delay(256, 10.0, DEFAULTS)
    expected = float(sum(exact_terms(256, 10)))
    assert abs(budget.total - expected) < 1e-12
    assert 0.7769 < budget.total < 0.7770


def test_terms_sum_to_total_bit_exact():
    budget = total_delay(256, 10.0, DEFAULTS)
    assert sum(budget.terms) == budget.total


def test_conversion_term_dominates():
    budget = total_delay(256, 10.0, DEFAULTS)
    assert budget.t7 == 0.75
    assert budget.t7 == max(budget.terms)
    assert budget.t7 > budget.total * 0.9


def test_each_term_matches_oracle():
    budget = total_delay(256, 10.0, DEFAULTS)
    for term, exact in zip(budget.terms, exact_terms(256, 10)):
        assert abs(term - float(exact)) < 1e-15


def test_affine_in_bits():
    sizes = [64, 128, 256, 512, 1024]
    totals = [total_delay(b, 10.0, DEFAULTS).total for b in sizes]
    assert totals == sorted(totals) and len(set(totals)) == len(totals)
    slope = float(Fraction(1, 19_200) + Fraction(1, 19_200) + Fraction(1, 12_000_000))
    for (b1, t1), (b2, t2) in zip(zip(sizes, totals), zip(sizes[1:], totals[1:])):
        assert abs((t2 - t1) / (b2 - b1) - slope) < 1e-12


def test_monotone_in_distance():
    totals = [total_delay(256, d, DEFAULTS).total for d in (1.0, 10.0, 100.0)]
    assert totals[0] <= totals[1] <= totals[2]


def test_fast_serial_limit():
    params = DelayParams(serial_rate_bps=1e15)
    assert serial_delay(256, params) < 1e-12


@given(st.integers(min_value=0, max_value=1 << 14), st.floats(min_value=0, max_value=1e4))
def test_budget_properties(bits, distance):
    budget = total_delay(bits, distance, DEFAULTS)
    assert all(term >= 0 for term in budget.terms)
    assert sum(budget.terms) == budget.total


@given(st.integers(min_value=0, max_value=1 << 12))
def test_second_difference_vanishes(bits):
    # Affine means the slope is the same over any span.
    step = 64
    t0 = total_delay(bits, 5.0, DEFAULTS).total
    t1 = total_delay(bits + step, 5.0, DEFAULTS).total
    t2 = total_delay(bits + 2 * step, 5.0, DEFAULTS).total
    assert abs((t2 - t1) - (t1 - t0)) < 1e-12


def test_validation():
    with pytest.raises(ValueError):
        DelayParams(air_data_rate_bps=0).validate()
    with pytest.raises(ValueError):
        DelayParams(mac_instruction_clocks=-1).validate()
    with pytest.raises(ValueError):
        airtime(-1, DEFAULTS)
    with pytest.raises(ValueError):
        propagation_delay(-1.0, DEFAULTS)
    DEFAULTS.validate()


def test_budget_terms_tuple():
    budget = DelayBudget(1, 2, 3, 4, 5, 6, 7, 8, 36)
    assert budget.terms == (1, 2, 3, 4, 5, 6, 7, 8)

"""Tick ledger accounting and the power conversion arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from motesim.energy import (
    CurrentProfile,
    EnergestLedger,
    RadioState,
    battery_power,
    component_power,
    total_power,
)


# ---------------------------------------------------------------------------
# Ledger

def test_settle_accrues_into_current_states():
    ledger = EnergestLedger()
    assert (ledger.cpu_ticks, ledger.lpm_ticks, ledger.tx_ticks, ledger.rx_ticks) == (0, 0, 0, 0)
    assert ledger.radio_state is RadioState.OFF
    ledger.settle(100, cpu_ticks=30)
    assert (ledger.cpu_ticks, ledger.lpm_ticks, ledger.tx_ticks, ledger.rx_ticks) == (30, 70, 0, 0)
    ledger.transition(RadioState.RX, 100)
    ledger.settle(160, cpu_ticks=30)
    assert (ledger.cpu_ticks, ledger.lpm_ticks, ledger.tx_ticks, ledger.rx_ticks) == (30, 130, 0, 60)


def test_radio_walk_accrues_tx_and_rx():
    ledger = EnergestLedger()
    ledger.transition(RadioState.TX, 10)
    ledger.transition(RadioState.RX, 25)
    ledger.transition(RadioState.OFF, 40)
    ledger.settle(100, cpu_ticks=0)
    assert ledger.tx_ticks == 15
    assert ledger.rx_ticks == 15
    assert ledger.cpu_ticks == 0 and ledger.lpm_ticks == 100  # the walk leaves the CPU alone


def test_settle_backwards_rejected():
    ledger = EnergestLedger()
    ledger.settle(50, cpu_ticks=0)
    with pytest.raises(ValueError):
        ledger.settle(49, cpu_ticks=0)
    ledger.settle(50, cpu_ticks=0)  # same instant is a no-op
    ledger.transition(RadioState.RX, 70)
    with pytest.raises(ValueError):
        ledger.settle(60, cpu_ticks=0)  # before the last radio change


def test_summed_splits_the_time_since_the_last_write():
    ledger = EnergestLedger(radio_state=RadioState.RX, settled_at=100, last_radio_change=100)
    ledger.settle(150, cpu_ticks=20, tx_ticks=5)
    ledger.settle(150, cpu_ticks=20, tx_ticks=5)  # same instant is a no-op
    ledger.settle(200, cpu_ticks=30, tx_ticks=5)
    assert (ledger.cpu_ticks, ledger.lpm_ticks, ledger.tx_ticks, ledger.rx_ticks) == (30, 70, 5, 95)
    ledger.settle(210, cpu_ticks=30)  # without a TX total the radio accrues its tag
    assert (ledger.lpm_ticks, ledger.rx_ticks) == (80, 105)


@pytest.mark.parametrize("now, cpu_ticks, tx_ticks", [
    (49, 0, None),   # before the last write
    (60, 16, None),  # more ACTIVE ticks than have passed
    (60, 4, None),   # fewer ACTIVE ticks than already counted
    (60, 5, 13),     # likewise for TX ticks
    (60, 5, 1),
])
def test_summed_rejects_a_history_that_goes_backwards(now, cpu_ticks, tx_ticks):
    ledger = EnergestLedger(radio_state=RadioState.RX)
    ledger.settle(50, cpu_ticks=5, tx_ticks=2)
    before = ledger.snapshot()
    with pytest.raises(ValueError):
        ledger.settle(now, cpu_ticks, tx_ticks)
    assert ledger == before  # a rejected settle books nothing


def test_transition_rejects_wrong_state_type():
    ledger = EnergestLedger()
    for value in ("rx", None, 1, "active"):
        with pytest.raises(ValueError):
            ledger.transition(value, 5)
    assert ledger.radio_state is RadioState.OFF and ledger.last_radio_change == 0


def test_transition_to_same_state_is_harmless():
    ledger = EnergestLedger()
    ledger.transition(RadioState.OFF, 30)
    ledger.settle(60, cpu_ticks=0)
    assert ledger.tx_ticks == 0 and ledger.rx_ticks == 0
    assert ledger.lpm_ticks == 60


def test_snapshot_is_independent_copy():
    ledger = EnergestLedger()
    ledger.settle(10, cpu_ticks=10)
    snap = ledger.snapshot()
    ledger.settle(90, cpu_ticks=90)
    assert snap.cpu_ticks == 10
    assert ledger.cpu_ticks == 90


def test_snapshot_copies_every_field():
    ledger = EnergestLedger(cpu_ticks=1, lpm_ticks=2, tx_ticks=3, rx_ticks=4,
                            radio_state=RadioState.TX, settled_at=5, last_radio_change=6)
    snap = ledger.snapshot()
    assert snap == ledger and snap is not ledger
    ledger.settle(20, cpu_ticks=8)
    ledger.transition(RadioState.RX, 20)
    assert snap == EnergestLedger(1, 2, 3, 4, RadioState.TX, 5, 6)


def test_random_walk_conserves_every_tick():
    # against a naive per-segment recomputation, over many random walks
    rng = random.Random(20240917)
    for _ in range(200):
        ledger = EnergestLedger()
        now = 0
        active = 0
        radio_time = {RadioState.OFF: 0, RadioState.TX: 0, RadioState.RX: 0}
        radio = RadioState.OFF
        for _ in range(rng.randint(1, 30)):
            step = rng.randint(0, 50)
            active += rng.randint(0, step)
            radio_time[radio] += step
            now += step
            if rng.random() < 0.3:
                ledger.settle(now, active)
            else:
                radio = rng.choice(list(RadioState))
                ledger.transition(radio, now)
        ledger.settle(now, active)
        assert ledger.cpu_ticks == active
        assert ledger.cpu_ticks + ledger.lpm_ticks == now
        assert ledger.tx_ticks == radio_time[RadioState.TX]
        assert ledger.rx_ticks == radio_time[RadioState.RX]
        assert ledger.tx_ticks + ledger.rx_ticks <= now


# ---------------------------------------------------------------------------
# Current profile

def test_default_profile_matches_platform_datasheet():
    profile = CurrentProfile()
    assert profile.cpu_active_ma == 4.0
    assert profile.tx_ma == 17.4
    assert profile.rx_ma == 18.8
    assert profile.voltage_v == 3.0
    assert 0 < profile.lpm_ma < profile.cpu_active_ma


# ---------------------------------------------------------------------------
# Power conversion

def test_component_power_full_interval_is_exact_ixv():
    # the whole interval in one state collapses to I times V exactly
    assert component_power(327680, 17.4, 3.0, 32768, 10.0) == 17.4 * 3.0
    assert component_power(32768, 4.0, 3.0, 32768, 1.0) == 12.0


def test_component_power_zero_ticks_is_zero():
    assert component_power(0, 17.4, 3.0, 32768, 10.0) == 0.0


def test_component_power_known_value():
    # 32768 of 327680 ticks at 4 mA, 3 V: a tenth of 12 mW
    got = component_power(32768, 4.0, 3.0, 32768, 10.0)
    assert math.isclose(got, 1.2, rel_tol=1e-12)


def test_component_power_matches_exact_arithmetic():
    rng = random.Random(424242)
    for _ in range(1000):
        hz = 32768
        runtime = rng.choice([1.0, 2.0, 5.0, 10.0, 60.0, 100.0]) * rng.choice([1, 1, 3])
        total = int(hz * runtime)
        delta = rng.randint(0, total)
        current = rng.uniform(0.01, 25.0)
        voltage = rng.uniform(1.8, 3.6)
        got = component_power(delta, current, voltage, hz, runtime)
        exact = (Fraction(delta) / (Fraction(hz) * Fraction(runtime))
                 * Fraction(current) * Fraction(voltage))
        assert math.isclose(got, float(exact), rel_tol=1e-12)


def test_component_power_is_linear_in_ticks():
    base = component_power(1000, 18.8, 3.0, 32768, 10.0)
    assert math.isclose(component_power(3000, 18.8, 3.0, 32768, 10.0),
                        3 * base, rel_tol=1e-12)


def test_component_power_input_validation():
    with pytest.raises(ValueError):
        component_power(-1, 4.0, 3.0, 32768, 10.0)
    with pytest.raises(ValueError):
        component_power(100, 4.0, 3.0, 32768, 0.0)
    with pytest.raises(ValueError):
        component_power(100, 4.0, 3.0, 0, 10.0)
    with pytest.raises(ValueError):
        # more ticks than the interval holds
        component_power(327681, 4.0, 3.0, 32768, 10.0)


def test_total_power_is_plain_left_to_right_sum():
    rng = random.Random(7)
    for _ in range(200):
        parts = [rng.uniform(0, 2) for _ in range(4)]
        assert total_power(*parts) == ((parts[0] + parts[1]) + parts[2]) + parts[3]


def test_total_power_rejects_negative_component():
    with pytest.raises(ValueError):
        total_power(1.0, -0.1, 0.0, 0.0)


def test_battery_power_product():
    assert battery_power(2.5, 3.0) == 7.5
    assert battery_power(0.0, 3.0) == 0.0

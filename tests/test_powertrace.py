"""Interval sampling from ledger snapshots and trace summarization."""

import math

import pytest

from motesim.energy import (
    CurrentProfile,
    EnergestLedger,
    PowerSample,
    RadioState,
)
from motesim.powertrace import LedgerRegression, summarize, take_sample


def _ledger_at_10s_mostly_lpm():
    # 1 s active then 9 s LPM, radio off throughout
    ledger = EnergestLedger()
    ledger.settle(327680, cpu_ticks=32768)
    return ledger


def test_take_sample_known_interval():
    profile = CurrentProfile(lpm_ma=0.026)
    prev = EnergestLedger()
    now = _ledger_at_10s_mostly_lpm()
    row = take_sample(prev, now, profile, 10.0)
    assert row.interval_end_s == 10.0
    assert row.cpu_delta == 32768
    assert row.lpm_delta == 294912
    assert row.tx_delta == 0 and row.rx_delta == 0
    assert math.isclose(row.sample.cpu_mw, 1.2, rel_tol=1e-12)
    assert math.isclose(row.sample.lpm_mw, 0.0702, rel_tol=1e-12)
    assert row.sample.tx_mw == 0.0 and row.sample.rx_mw == 0.0
    assert math.isclose(row.sample.total_mw, 1.2702, rel_tol=1e-12)


def test_take_sample_with_radio_activity():
    profile = CurrentProfile()
    prev = EnergestLedger()
    now = EnergestLedger()
    now.transition(RadioState.TX, 0)
    now.transition(RadioState.RX, 16384)
    now.transition(RadioState.OFF, 49152)
    now.settle(327680, cpu_ticks=0)
    row = take_sample(prev, now, profile, 10.0)
    assert row.tx_delta == 16384
    assert row.rx_delta == 32768
    assert math.isclose(row.sample.tx_mw, 0.05 * 17.4 * 3.0, rel_tol=1e-12)
    assert math.isclose(row.sample.rx_mw, 0.10 * 18.8 * 3.0, rel_tol=1e-12)


def test_take_sample_diffs_against_previous_snapshot():
    profile = CurrentProfile()
    first = EnergestLedger()
    first.settle(32768, cpu_ticks=32768)
    snap = first.snapshot()
    first.settle(65536, cpu_ticks=32768)
    row = take_sample(snap, first, profile, 1.0)
    assert row.cpu_delta == 0
    assert row.lpm_delta == 32768
    assert row.interval_end_s == 2.0


@pytest.mark.parametrize("counter", ["cpu", "lpm", "tx", "rx"])
def test_counter_regression_is_an_error(counter):
    ahead = EnergestLedger(**{f"{counter}_ticks": 1000})
    behind = EnergestLedger()
    with pytest.raises(LedgerRegression, match=f"^{counter} counter decreased by 1000 ticks$"):
        take_sample(ahead, behind, CurrentProfile(), 1.0)


def test_summarize_single_row_is_identity():
    sample = PowerSample(10.0, 1.0, 0.01, 2.0, 3.0, 6.01)
    avg = summarize([sample])
    assert avg == sample


def test_summarize_takes_column_means():
    rows = [
        PowerSample(10.0, 1.0, 0.0, 2.0, 3.0, 6.0),
        PowerSample(20.0, 3.0, 0.2, 4.0, 5.0, 12.2),
    ]
    avg = summarize(rows)
    assert avg.interval_end_s == 15.0
    assert avg.cpu_mw == 2.0
    assert avg.lpm_mw == 0.1
    assert avg.tx_mw == 3.0
    assert avg.rx_mw == 4.0
    assert math.isclose(avg.total_mw, 9.1, rel_tol=1e-12)


def test_summarize_total_is_mean_of_row_totals():
    rows = [
        PowerSample(10.0, 1.0, 0.0, 0.0, 0.0, 1.0),
        PowerSample(20.0, 0.0, 0.0, 1.0, 0.0, 1.0),
        PowerSample(30.0, 0.0, 0.0, 0.0, 4.0, 4.0),
    ]
    assert summarize(rows).total_mw == 2.0


def test_summarize_adds_each_column_left_to_right():
    # the same average on every Python: sum() of floats compensates from 3.12 on
    rows = [PowerSample(10.0, cpu, 0.0, 0.0, 0.0, cpu) for cpu in (1.0, 1e16, 1.0)]
    assert summarize(rows).cpu_mw == 1e16 / 3


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])

"""Interval sampler: ledger snapshots to per-interval power rows and averages."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .energy import CurrentProfile, EnergestLedger, PowerSample, component_power, total_power
from .engine import RTIMER_HZ


class LedgerRegression(RuntimeError):
    """Cumulative counters moved backwards between two samplings."""


class TraceRow(NamedTuple):
    """Raw ticks per state for one interval plus their power conversion."""

    interval_end_s: float
    cpu_delta: int
    lpm_delta: int
    tx_delta: int
    rx_delta: int
    sample: PowerSample


def take_sample(
    prev: EnergestLedger,
    now: EnergestLedger,
    profile: CurrentProfile,
    interval_s: float,
) -> TraceRow:
    """Difference two settled ledger snapshots and convert to power.

    Each state's power uses the interval as the runtime, so rows are mutually
    independent and a full-interval state yields exactly I * V.
    """
    cpu = now.cpu_ticks - prev.cpu_ticks
    lpm = now.lpm_ticks - prev.lpm_ticks
    tx = now.tx_ticks - prev.tx_ticks
    rx = now.rx_ticks - prev.rx_ticks
    if cpu < 0 or lpm < 0 or tx < 0 or rx < 0:
        for name, delta in (("cpu", cpu), ("lpm", lpm), ("tx", tx), ("rx", rx)):
            if delta < 0:
                raise LedgerRegression(f"{name} counter decreased by {-delta} ticks")
    voltage = profile.voltage_v
    cpu_mw = component_power(cpu, profile.cpu_active_ma, voltage, RTIMER_HZ, interval_s)
    lpm_mw = component_power(lpm, profile.lpm_ma, voltage, RTIMER_HZ, interval_s)
    tx_mw = component_power(tx, profile.tx_ma, voltage, RTIMER_HZ, interval_s)
    rx_mw = component_power(rx, profile.rx_ma, voltage, RTIMER_HZ, interval_s)
    interval_end_s = now.settled_at / RTIMER_HZ
    sample = PowerSample(interval_end_s, cpu_mw, lpm_mw, tx_mw, rx_mw,
                         total_power(cpu_mw, lpm_mw, tx_mw, rx_mw))
    return TraceRow(interval_end_s, cpu, lpm, tx, rx, sample)


def summarize(samples: Sequence[PowerSample]) -> PowerSample:
    """Arithmetic mean of every column; the average total is the mean of the
    row totals, not the sum of the averaged components."""
    if not samples:
        raise ValueError("cannot summarize an empty trace")
    n = len(samples)
    means = []
    for column in PowerSample._fields:
        total = 0.0
        for sample in samples:  # left to right: sum() compensates from Python 3.12 on
            total += getattr(sample, column)
        means.append(total / n)
    return PowerSample(*means)

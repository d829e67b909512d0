"""Hardware-state tick ledger and tick-to-power conversion for a modeled mote."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

from .engine import TickTime


class RadioState(Enum):
    OFF = "off"
    TX = "tx"
    RX = "rx"


@dataclass
class EnergestLedger:
    """Cumulative tick counters per hardware state.

    Each settle() takes over the CPU's ACTIVE total, counted by its owner.
    The radio accrues ticks into its state tag between transitions, or, if
    it is never off, takes over a TX total at settle() like the CPU.
    """

    cpu_ticks: int = 0
    lpm_ticks: int = 0
    tx_ticks: int = 0
    rx_ticks: int = 0
    radio_state: RadioState = RadioState.OFF
    settled_at: TickTime = 0
    last_radio_change: TickTime = 0

    def settle(self, now: TickTime, cpu_ticks: int,
               tx_ticks: Optional[int] = None) -> "EnergestLedger":
        """Book up to now: cpu_ticks ACTIVE in all, and the rest of the time
        since the last settle LPM. With tx_ticks, likewise TX and RX for a
        radio that is never off; without, the radio accrues its state tag."""
        cpu = cpu_ticks - self.cpu_ticks
        if not 0 <= cpu <= now - self.settled_at:
            raise ValueError(f"CPU history settled at tick {now} goes backwards")
        if tx_ticks is None:
            self._accrue_radio(now)
        else:
            tx = tx_ticks - self.tx_ticks
            if not 0 <= tx <= now - self.last_radio_change:
                raise ValueError(f"radio history settled at tick {now} goes backwards")
            self.rx_ticks += now - self.last_radio_change - tx
            self.tx_ticks, self.last_radio_change = tx_ticks, now
        self.lpm_ticks += now - self.settled_at - cpu
        self.cpu_ticks, self.settled_at = cpu_ticks, now
        return self

    def transition(self, new_state: RadioState, now: TickTime) -> "EnergestLedger":
        """Accrue the radio up to now, then swap its state tag."""
        if not isinstance(new_state, RadioState):
            raise ValueError(f"not a radio state: {new_state!r}")
        self._accrue_radio(now)
        self.radio_state = new_state
        return self

    def replayed_radio(self, state: RadioState, since: TickTime, rx_ticks: int) -> None:
        """Take over a radio history replayed elsewhere: the state now, the
        tick it began, and the RX ticks accrued before that tick."""
        if since < self.last_radio_change or rx_ticks < self.rx_ticks:
            raise ValueError(f"replayed radio change at tick {since} precedes the last one")
        self.radio_state = state
        self.last_radio_change = since
        self.rx_ticks = rx_ticks

    def _accrue_radio(self, now: TickTime) -> None:
        delta = now - self.last_radio_change
        if delta < 0:
            raise ValueError(f"radio change at tick {now} precedes the last one")
        if self.radio_state is RadioState.TX:
            self.tx_ticks += delta
        elif self.radio_state is RadioState.RX:
            self.rx_ticks += delta
        self.last_radio_change = now

    def snapshot(self) -> "EnergestLedger":
        return replace(self)


class CurrentProfile(NamedTuple):
    """Per-state current draw and supply characteristics for a node class.

    Defaults model a Z1-class mote: MSP430 CPU active / deep sleep currents and
    CC2420 radio TX/RX currents at 3 V. They are calibration inputs, not
    measured ground truth; comparisons built on them are about orderings and
    ratios, never absolute milliwatts.
    """

    cpu_active_ma: float = 4.0
    lpm_ma: float = 0.0001
    tx_ma: float = 17.4
    rx_ma: float = 18.8
    voltage_v: float = 3.0


class PowerSample(NamedTuple):
    """One trace row: per-state power plus total for one sampling interval."""

    interval_end_s: float
    cpu_mw: float
    lpm_mw: float
    tx_mw: float
    rx_mw: float
    total_mw: float


def component_power(
    delta_ticks: int,
    current_ma: float,
    voltage_v: float,
    rtimer_hz: int,
    runtime_s: float,
) -> float:
    """Average power in mW for one state over one interval.

    power = (delta_ticks / (rtimer_hz * runtime_s)) * current_ma * voltage_v.
    The tick ratio is formed first so a full interval yields exactly I * V.
    """
    if runtime_s <= 0:
        raise ValueError("runtime_s must be positive")
    if rtimer_hz <= 0:
        raise ValueError("rtimer_hz must be positive")
    if delta_ticks < 0:
        raise ValueError("delta_ticks must be non-negative")
    if current_ma < 0 or voltage_v < 0:
        raise ValueError("current and voltage must be non-negative")
    denominator = rtimer_hz * runtime_s
    if delta_ticks > denominator:
        raise ValueError(
            f"delta_ticks {delta_ticks} exceeds interval capacity {denominator}"
        )
    return (delta_ticks / denominator) * current_ma * voltage_v


def total_power(cpu_mw: float, lpm_mw: float, tx_mw: float, rx_mw: float) -> float:
    """Exact sum of the four per-state components."""
    for value in (cpu_mw, lpm_mw, tx_mw, rx_mw):
        if value < 0:
            raise ValueError("component powers must be non-negative")
    return cpu_mw + lpm_mw + tx_mw + rx_mw


def battery_power(current_a: float, voltage_v: float) -> float:
    """Battery drain in watts: supply current times voltage."""
    if current_a < 0 or voltage_v < 0:
        raise ValueError("current and voltage must be non-negative")
    return current_a * voltage_v

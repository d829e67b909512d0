"""Hardware-state tick ledger and tick-to-power conversion for a modeled mote."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .engine import TickTime


class CpuState(Enum):
    ACTIVE = "active"
    LPM = "lpm"


class RadioState(Enum):
    OFF = "off"
    TX = "tx"
    RX = "rx"


@dataclass
class EnergestLedger:
    """Cumulative tick counters per hardware state, accrued lazily on settle()."""

    cpu_ticks: int = 0
    lpm_ticks: int = 0
    tx_ticks: int = 0
    rx_ticks: int = 0
    cpu_state: CpuState = CpuState.ACTIVE
    radio_state: RadioState = RadioState.OFF
    last_cpu_change: TickTime = 0
    last_radio_change: TickTime = 0

    def settle(self, now: TickTime) -> "EnergestLedger":
        """Accrue ticks since the last state changes into the current states."""
        if now < self.last_cpu_change or now < self.last_radio_change:
            raise ValueError(f"settle at tick {now} precedes a recorded state change")
        self._accrue_cpu(now)
        self._accrue_radio(now)
        return self

    def transition(self, new_state, now: TickTime) -> "EnergestLedger":
        """Accrue the domain of new_state (CPU or radio) up to now, then swap
        its state tag.

        The other domain keeps accruing lazily until its own next change or
        the next settle(), so sampled totals equal settling both every time.
        """
        if isinstance(new_state, CpuState):
            self._accrue_cpu(now)
            self.cpu_state = new_state
        elif isinstance(new_state, RadioState):
            self._accrue_radio(now)
            self.radio_state = new_state
        else:
            raise ValueError(f"not a CPU or radio state: {new_state!r}")
        return self

    def replayed_radio(self, state: RadioState, since: TickTime, rx_ticks: int) -> None:
        """Take over a radio history replayed elsewhere: the state now, the
        tick it began, and the RX ticks accrued before that tick."""
        if since < self.last_radio_change or rx_ticks < self.rx_ticks:
            raise ValueError(f"replayed radio change at tick {since} precedes the last one")
        self.radio_state = state
        self.last_radio_change = since
        self.rx_ticks = rx_ticks

    def summed(self, now: TickTime, cpu_ticks: int, tx_ticks: Optional[int] = None) -> None:
        """Take over busy totals summed elsewhere up to now: cpu_ticks ACTIVE
        in all, and the rest of the time since the last write LPM; with
        tx_ticks, likewise TX and RX for a radio that is never off."""
        cpu = cpu_ticks - self.cpu_ticks
        if not 0 <= cpu <= now - self.last_cpu_change:
            raise ValueError(f"summed CPU history at tick {now} goes backwards")
        self.lpm_ticks += now - self.last_cpu_change - cpu
        self.cpu_ticks, self.last_cpu_change = cpu_ticks, now
        if tx_ticks is None:
            return
        tx = tx_ticks - self.tx_ticks
        if not 0 <= tx <= now - self.last_radio_change:
            raise ValueError(f"summed radio history at tick {now} goes backwards")
        self.rx_ticks += now - self.last_radio_change - tx
        self.tx_ticks, self.last_radio_change = tx_ticks, now

    def _accrue_cpu(self, now: TickTime) -> None:
        delta = now - self.last_cpu_change
        if delta < 0:
            raise ValueError(f"CPU change at tick {now} precedes the last one")
        if self.cpu_state is CpuState.ACTIVE:
            self.cpu_ticks += delta
        else:
            self.lpm_ticks += delta
        self.last_cpu_change = now

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


@dataclass(frozen=True)
class CurrentProfile:
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

    def __post_init__(self):
        for name in ("cpu_active_ma", "lpm_ma", "tx_ma", "rx_ma"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative current: {name}")
        if self.voltage_v <= 0:
            raise ValueError("voltage_v must be positive")
        if self.lpm_ma >= self.cpu_active_ma:
            raise ValueError("lpm_ma must be below cpu_active_ma")


@dataclass(frozen=True)
class PowerSample:
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

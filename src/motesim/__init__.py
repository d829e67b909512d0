"""Discrete-event simulator for IoT messaging protocols on low-power motes.

Simulates MQTT, MQTT-SN, CoAP, and HTTP clients talking to a server over a
duty-cycled low-rate radio, accounts every tick of CPU and radio time, and
converts the ledgers into per-state power draw for side-by-side comparison.
"""

from .energy import (
    CpuState,
    CurrentProfile,
    EnergestLedger,
    PowerSample,
    RadioState,
    battery_power,
    component_power,
    total_power,
)
from .engine import (
    RTIMER_HZ,
    Engine,
    RunSummary,
    seconds_to_ticks,
    ticks_to_seconds,
)
from .harness import (
    PROTOCOLS,
    ComparisonReport,
    ScenarioConfig,
    ScenarioError,
    SimRun,
    Trace,
    compare,
    emit_plot_data,
    load_scenario,
    parse_trace_csv,
    run_scenario,
    simulate,
    write_csv,
    write_report_csv,
)
from .medium import (
    BROADCAST,
    RADIO_RATE_BPS,
    CpuCostModel,
    DutyCycleConfig,
    FrameTooLarge,
    LinkModel,
    Node,
    Overheads,
    RadioFrame,
    RadioMedium,
    airtime_ticks,
)
from .powertrace import LedgerRegression, TraceRow, summarize, take_sample

__all__ = [
    "BROADCAST",
    "ComparisonReport",
    "CpuCostModel",
    "CpuState",
    "CurrentProfile",
    "DutyCycleConfig",
    "EnergestLedger",
    "Engine",
    "FrameTooLarge",
    "LedgerRegression",
    "LinkModel",
    "Node",
    "Overheads",
    "PROTOCOLS",
    "PowerSample",
    "RADIO_RATE_BPS",
    "RTIMER_HZ",
    "RadioFrame",
    "RadioMedium",
    "RadioState",
    "RunSummary",
    "ScenarioConfig",
    "ScenarioError",
    "SimRun",
    "Trace",
    "TraceRow",
    "airtime_ticks",
    "battery_power",
    "compare",
    "component_power",
    "emit_plot_data",
    "load_scenario",
    "parse_trace_csv",
    "run_scenario",
    "seconds_to_ticks",
    "simulate",
    "summarize",
    "take_sample",
    "ticks_to_seconds",
    "total_power",
    "write_csv",
    "write_report_csv",
]

__version__ = "0.1.0"

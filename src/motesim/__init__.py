"""Discrete-event simulator for IoT messaging protocols on low-power motes.

Simulates MQTT, MQTT-SN, CoAP, and HTTP clients talking to a server over a
duty-cycled low-rate radio, accounts every tick of CPU and radio time, and
converts the ledgers into per-state power draw for side-by-side comparison.
"""

from .harness import (
    PROTOCOLS,
    ScenarioConfig,
    ScenarioError,
    compare,
    emit_plot_data,
    load_scenario,
    parse_trace_csv,
    run_scenario,
    simulate,
    write_csv,
    write_report_csv,
)

__all__ = [
    "PROTOCOLS",
    "ScenarioConfig",
    "ScenarioError",
    "compare",
    "emit_plot_data",
    "load_scenario",
    "parse_trace_csv",
    "run_scenario",
    "simulate",
    "write_csv",
    "write_report_csv",
]

__version__ = "0.1.0"

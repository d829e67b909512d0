"""The benchmark's workloads: scenario files, one pass of operations, output checks.

An operation is one scenario run: ``simulate()`` plus ``write_csv()`` of its
report-node trace. A pass runs each scenario of a workload once, in order;
default4 then parses its four CSVs back and runs them through ``compare``,
``write_report_csv`` and ``emit_plot_data``, as in the README flow.

Why each workload exists:

- default4: the default scenario for mqtt, mqtt-sn, coap and http (100 s,
  1 client, lossless, duty cycling on). This is what users and the acceptance
  gate run. 86% of its events are idle duty-check bookkeeping, and each frame
  has one listener.
- crowd50: mqtt-sn with 50 clients, 100 s, lossless, duty cycling on. Each
  frame is heard by about 50 listeners; most events are the per-listener
  ``_maybe_radio_off``, and ``settle`` plus ``transition`` take about a quarter
  of host time. It is the target of cutting the event load.
- lossy-stream: mqtt and http with 5 clients each, ``tx_success = 0.7``, duty
  cycling off (an always-on receiver, like Contiki's nullrdc), 1000 s. It is
  the only workload with RNG draws, stream retransmissions, RTO cancels,
  reconnects and multi-segment HTTP reassembly, and it reaches the medium
  through the reliable stream where crowd50 uses datagrams. It has no duty
  checks, so duty-cycle work should not move it. Its work depends on the
  seed: MQTT sends from 6.3k to 11.3k frames in a run, depending on when
  connections drop. One seed per run would make its timings spread by a fifth
  from seed to seed, so each pass runs both scenarios at LOSSY_SEEDS consecutive
  seeds, starting at the benchmark's seed. Compare two commits on the same seed.

Which end-to-end metric each layer metric should move, and on which workload:

- engine (events, scheduled callbacks, cancels, call_at and dispatch time):
  ``run_s`` and ``sim_rate`` on all three; engine code is a third of host time
  everywhere.
- energy (ledger transitions and settles): ``run_s`` most on crowd50 and
  default4, least on lossy-stream.
- medium fan-out (listeners per frame, hear, broadcast): ``run_s`` on crowd50,
  flat on default4. ``duty_s`` moves default4 and is zero on lossy-stream.
  ``stream_retx`` matters only on lossy-stream.
- protocols (steps and codecs): 3% or less of host time everywhere, largest
  on lossy-stream. Their counts are simulated statistics, not host time.
- powertrace (interval samples): a small share of ``run_s``, largest on
  default4.
- harness (build, scenario loading, CSV I/O, compare): ``setup_s``, and
  ``run_s`` on default4, where fixed costs per run matter most.
- ``peak_mem_mb`` tracks frames sent, because ``Node.sent_frames`` and
  ``SimRun.events`` are retained: largest on lossy-stream and crowd50.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from motesim import harness
from motesim.engine import seconds_to_ticks
from motesim.medium import airtime_ticks

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE / "scenarios"
TESTS_DIR = HERE.parent / "tests"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_files: tuple[str, ...]
    report_stage: bool = False
    seeds: int = 1  # each scenario runs at this many consecutive seeds


# Seeds per pass of lossy-stream; see the module docstring.
LOSSY_SEEDS = 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default4", ("default-mqtt.ini", "default-mqtt-sn.ini",
                              "default-coap.ini", "default-http.ini"),
                 report_stage=True),
        Workload("crowd50", ("crowd50.ini",)),
        Workload("lossy-stream", ("lossy-mqtt.ini", "lossy-http.ini"), seeds=LOSSY_SEEDS),
    )
}


@dataclass(frozen=True)
class Scenario:
    label: str
    config: harness.ScenarioConfig

    @property
    def report_node(self) -> str:
        return self.config.report_node or self.config.client_ids()[0]

    @property
    def node_seconds(self) -> float:
        """Simulated node-seconds one run covers: every client plus the server."""
        return (self.config.clients + 1) * self.config.duration_s

    @property
    def publish_slots(self) -> int:
        """Application messages the clients are scheduled to send."""
        cfg = self.config
        slots = math.ceil((cfg.duration_s - cfg.publish_offset_s) / cfg.publish_period_s)
        return cfg.clients * max(0, slots)


def load_scenarios(workload: Workload, seed: int) -> list[Scenario]:
    """Read the workload's scenario files, once per seed the workload uses."""
    scenarios = []
    for run_seed in range(seed, seed + workload.seeds):
        for name in workload.scenario_files:
            config = harness.load_scenario(SCENARIO_DIR / name)
            config.seed = run_seed
            scenarios.append(Scenario(f"{Path(name).stem}@{run_seed}", config.validate()))
    return scenarios


@dataclass
class PassResult:
    """Timings, failures and the simulated-output fingerprint of one pass."""

    op_seconds: list[tuple[str, float]] = field(default_factory=list)
    report_seconds: float = 0.0
    node_seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    fingerprint: dict = field(default_factory=dict)

    @property
    def busy_seconds(self) -> float:
        return sum(s for _, s in self.op_seconds) + self.report_seconds


def run_pass(scenarios: list[Scenario], workload: Workload, outdir: Path,
             reference: dict | None = None) -> PassResult:
    """Run every scenario once, check each output, and fingerprint the pass.

    With a reference fingerprint, every output must equal it: repeated runs of
    one scenario and seed give byte-identical CSVs and identical statistics.
    """
    result = PassResult()
    csv_paths = {}
    for scenario in scenarios:
        path = outdir / f"{scenario.label}.csv"
        try:
            elapsed, problems, stats = _run_op(scenario, path)
        except Exception as err:  # a failed operation is counted, not fatal
            elapsed, problems, stats = 0.0, [f"raised {type(err).__name__}: {err}"], None
        if not problems and reference is not None and stats != reference.get(scenario.label):
            problems = ["output differs from the warm-up pass"]
        if problems:
            result.failed_ops += 1
            result.failures += [f"{scenario.label}: {p}" for p in problems]
            continue
        result.op_seconds.append((scenario.label, elapsed))
        result.node_seconds += scenario.node_seconds
        result.fingerprint[scenario.label] = stats
        csv_paths[scenario.label] = path
    if workload.report_stage and not result.failed_ops:
        try:
            result.report_seconds, digests = report_stage(csv_paths, outdir)
            result.fingerprint["report"] = digests
            if reference is not None and digests != reference.get("report"):
                raise ValueError("report differs from the warm-up pass")
        except Exception as err:
            # The four operations fed a flow that broke, so none of them counts.
            result.failed_ops = len(scenarios)
            result.failures.append(f"report stage: {type(err).__name__}: {err}")
    return result


def _run_op(scenario: Scenario, path: Path) -> tuple[float, list[str], dict]:
    """One timed operation, then its checks; the SimRun is freed on return."""
    started = time.perf_counter()
    sim = harness.simulate(scenario.config)
    harness.write_csv(sim.traces[scenario.report_node], path)
    elapsed = time.perf_counter() - started
    return elapsed, check_run(sim), simulated_stats(scenario, sim, path)


def report_stage(csv_paths: dict[str, Path], outdir: Path) -> tuple[float, dict]:
    """Parse the traces back, rank them and write the report and plot data."""
    started = time.perf_counter()
    averages = {}
    for label, path in csv_paths.items():
        _, average = harness.parse_trace_csv(path)
        if average is None:
            raise ValueError(f"{path.name} has no avg row")
        averages[label] = average
    report = harness.compare(averages)
    harness.write_report_csv(report, outdir / "report.csv")
    harness.emit_plot_data(report, outdir / "plot.dat")
    elapsed = time.perf_counter() - started
    return elapsed, {
        "ranking": report.ranking,
        "report_sha256": _sha256(outdir / "report.csv"),
        "plot_sha256": _sha256(outdir / "plot.dat"),
    }


def check_run(sim: harness.SimRun) -> list[str]:
    """Tick conservation on every node and interval, TX ticks against airtime."""
    interval_ticks = seconds_to_ticks(sim.config.interval_s)
    problems = []
    for node_id, trace in sim.traces.items():
        for row in trace.rows:
            if row.cpu_delta + row.lpm_delta != interval_ticks:
                problems.append(f"{node_id} @{row.interval_end_s:g}s: cpu+lpm "
                                f"{row.cpu_delta + row.lpm_delta} != {interval_ticks}")
            if row.tx_delta + row.rx_delta > interval_ticks:
                problems.append(f"{node_id} @{row.interval_end_s:g}s: tx+rx "
                                f"{row.tx_delta + row.rx_delta} > {interval_ticks}")
    for node_id, node in sim.nodes.items():
        airtime = sum(airtime_ticks(f.length_bytes) for f in node.sent_frames)
        if node.ledger.tx_ticks != airtime:
            problems.append(f"{node_id}: tx_ticks {node.ledger.tx_ticks} != "
                            f"summed airtime {airtime}")
    return problems


def simulated_stats(scenario: Scenario, sim: harness.SimRun, csv_path: Path) -> dict:
    """What the run computed, read from its results without any hook."""
    server = sim.runtimes["server"].state
    if hasattr(server, "broker"):  # the MQTT-SN gateway forwards to a broker
        server = server.broker
    received = getattr(server, "received", None)
    return {
        "csv_sha256": _sha256(csv_path),
        "avg_total_mw": sim.traces[scenario.report_node].avg.total_mw,
        "frames_sent": sum(len(n.sent_frames) for n in sim.nodes.values()),
        "app_received": (len(received) if received is not None
                         else server.requests_handled),
        "publish_slots": scenario.publish_slots,
        "notes": dict(sorted(Counter(kind for _, _, kind, _ in sim.events).items())),
    }


def reference_gap_pct(seed: int) -> float:
    """Mean over the four default scenarios of |sim / reference - 1| x 100.

    The reference average totals are read from the acceptance tests, so the
    benchmark and the gate share one copy of them.
    """
    references = _acceptance_module().AVERAGE_TOTALS
    gaps = []
    for scenario in load_scenarios(WORKLOADS["default4"], seed):
        trace = harness.run_scenario(scenario.config)
        gaps.append(abs(trace.avg.total_mw / references[scenario.config.protocol] - 1.0))
    return 100.0 * sum(gaps) / len(gaps)


def _acceptance_module():
    path = TESTS_DIR / "test_acceptance.py"
    sys.path.insert(0, str(TESTS_DIR))  # for its msggen import
    try:
        spec = importlib.util.spec_from_file_location("motesim_acceptance", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TESTS_DIR))
    return module


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()

"""motesim benchmark: host time to produce the milliwatt numbers, and proof they hold.

    python3 perfbench/run.py --workload default4 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run sets up (first import of motesim, then ``load_scenario`` and ``validate``
of the workload's scenario files), runs one untimed warm-up pass whose output
is the reference, then repeats passes of the workload for ``--seconds``, one
operation at a time on one thread (a closed loop). Every operation is checked
(see ``workloads.check_run``) and its trace CSV and simulated statistics must
equal the warm-up's; an operation that raises or fails a check counts into
``failed``.

With ``--trace 0`` the run prints the end-to-end metrics named in
BENCHMARK.json, measured with tracing off. ``run_s``, ``sim_rate`` and a
``run_s_tail`` from fewer than SPIKE_SAMPLES operations are scaled by a
host-speed factor measured in the same run (see ``hostspeed``); the raw values
are in the detail line. ``peak_mem_mb`` is the high-water mark after set-up and
the warm-up pass, before any calibration kernel runs.

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics, each the median over traced passes and given per pass;
``trace.overhead_s`` is traced minus untraced ``run_s``. ``--workload all``
runs every workload in turn, each in its own process so that each pays its
own first import.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
``detail {...}``, records the seed, the tail percentile and sample count, the
failures, and the fingerprint: the SHA-256 of every trace CSV plus the
simulated statistics (and, traced, the event census by callback).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("default4", "crowd50", "lossy-stream")
# Fresh processes that each time one more set-up; setup_s is the median.
SETUP_PROBES = 19
# Traced reloads of the scenario files behind harness.load_scenario_s.
LOAD_REPEATS = 5
# Tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# From this many operations the tail sits at p90 or above, where millisecond
# host interruptions set it; such a tail is not scaled by the host factor.
SPIKE_SAMPLES = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this process and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "motesim" / "__init__.py").is_file():
        print(f"perfbench: motesim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import workloads  # first import of motesim in this process: part of setup_s

    workload = workloads.WORKLOADS[args.workload]
    scenarios = workloads.load_scenarios(workload, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = host = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        from hostspeed import HostSpeed
        host = HostSpeed()
    outdir = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        loop = Loop(functools.partial(workloads.run_pass, scenarios, workload, outdir),
                    scenarios, tracer, host)
        loop.run(args.seconds)
    finally:
        shutil.rmtree(outdir)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for failure in loop.failures[:20]:
        print(f"perfbench: {failure}", file=sys.stderr)
    if not any(result.op_seconds for result in loop.untraced):
        print("perfbench: no operation succeeded; nothing to measure", file=sys.stderr)
        return 1

    if tracer:
        values, notes = loop.layer_values(), {}
        values["harness.load_scenario_s"] = traced_load_seconds(tracer, workloads, workload,
                                                                args.seed)
        wanted = spec["per_layer"]
        for metric in wanted:  # a notes kind that never occurred counts 0
            if metric["name"].startswith("protocols.notes."):
                values.setdefault(metric["name"], 0)
    else:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        tail, tail_pct, samples = loop.tail()
        raw = {
            "run_s": loop.run_s(loop.untraced),
            "run_s_tail": tail,
            "sim_rate": loop.sim_rate(),
        }
        # Operation time in reference-host seconds; a rate scales the other way.
        # A tail from SPIKE_SAMPLES operations or more is set by millisecond
        # host interruptions, which do not follow the kernel, so it stays as
        # measured; from fewer it is a central order statistic and drifts with
        # host speed like run_s. Set-up (imports and file reads) does not
        # follow the kernel either, so setup_s stays as measured.
        factor = host.factor
        tail_scaled = samples < SPIKE_SAMPLES
        values = {
            "run_s": raw["run_s"] * factor,
            "run_s_tail": tail * factor if tail_scaled else tail,
            "sim_rate": raw["sim_rate"] / factor,
            "setup_s": statistics.median(setups),
            "peak_mem_mb": loop.peak_mem_mb,
            "ref_gap_pct": workloads.reference_gap_pct(args.seed),
        }
        scaled = f"host factor {factor:.4f} from {len(host.samples)} kernel runs"
        notes = {name: f"raw {value:.6g}; {scaled}" for name, value in raw.items()}
        if not tail_scaled:
            notes["run_s_tail"] = "as measured"
        notes["run_s"] += "; mean over scenarios of the median operation time"
        notes["run_s_tail"] += f"; p{tail_pct:.1f} of {samples} operations"
        notes["setup_s"] = f"median of {len(setups)} set-ups"
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(loop.untraced) + len(loop.traced)}  operations {loop.attempted}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:<14.6g} {metric['unit']:<9} {notes.get(name, '')}")
    print(f"  {'fail_frac':<32} {loop.failed / loop.attempted:<14.6g} "
          f"{'ratio':<9} {loop.failed} of {loop.attempted} operations")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "run_s_by_scenario": loop.medians(loop.untraced),
        "fail_frac": loop.failed / loop.attempted,
        "failures": loop.failures[:20],
        "fingerprint": loop.reference.fingerprint,
        "ref_gap_pct": values.get("ref_gap_pct"),
        "event_census": loop.census,
        "events_by_scenario": loop.events_by_scenario,
    }
    if not args.trace:
        detail.update(raw=raw, host_factor=factor, run_s_tail_scaled=tail_scaled,
                      run_s_tail_percentile=tail_pct,
                      run_s_tail_samples=samples)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


class Loop:
    """The closed measurement loop over passes of one workload."""

    def __init__(self, run_pass, scenarios, tracer=None, host=None):
        self.run_pass = run_pass
        self.scenarios = scenarios
        self.tracer = tracer
        self.host = host
        self.reference = None
        self.untraced: list = []
        self.traced: list = []
        self.layers: list[dict] = []
        self.census = None
        self.events_by_scenario = None
        self.peak_mem_mb = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, seconds: float) -> None:
        """Untraced passes, alternating with traced ones when there is a tracer."""
        tracer = self.tracer
        self.reference = self._account(self._pass(None))
        # Set-up plus one pass, before any calibration kernel allocates.
        self.peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = self.reference.fingerprint
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not self.untraced or (tracer and not self.traced):
            if tracer and len(self.traced) < len(self.untraced):
                with tracer:
                    tracer.reset()
                    result = self._pass(reference)
                census = tracer.event_census()
                if self.census is None:
                    self.census = census
                    labels = [s.label for s in self.scenarios]
                    self.events_by_scenario = dict(zip(labels, tracer.run_events))
                if census != self.census:
                    result.failed_ops = len(self.scenarios)
                    result.failures.append("event census differs from the first traced pass")
                self.layers.append({**tracer.layer_metrics(), **self._simulated(result)})
                self.traced.append(self._account(result))
            else:
                self.untraced.append(self._account(self._pass(reference)))
                if self.host:
                    self.host.sample(self.untraced[-1].busy_seconds)

    def _pass(self, reference):
        gc.collect()  # start every pass from the same heap, outside the timed region
        return self.run_pass(reference)

    def _account(self, result):
        self.attempted += len(self.scenarios)
        self.failed += result.failed_ops
        self.failures += result.failures
        return result

    def _simulated(self, result) -> dict:
        """Per-pass protocol statistics read from the runs themselves."""
        stats = [result.fingerprint[s.label] for s in self.scenarios
                 if s.label in result.fingerprint]
        values = {
            "protocols.app_received": sum(s["app_received"] for s in stats),
            "protocols.publish_slots": sum(s["publish_slots"] for s in stats),
        }
        for s in stats:
            for kind, count in s["notes"].items():
                key = f"protocols.notes.{kind}"
                values[key] = values.get(key, 0) + count
        return values

    def medians(self, passes) -> dict[str, float]:
        times: dict[str, list[float]] = {}
        for result in passes:
            for label, seconds in result.op_seconds:
                times.setdefault(label, []).append(seconds)
        return {label: statistics.median(v) for label, v in times.items()}

    def run_s(self, passes) -> float:
        """Mean over scenarios of each scenario's median operation time.

        A median over default4's or lossy-stream's mixed operations would sit
        at the edge of one scenario's cluster and jump between clusters.
        """
        medians = self.medians(passes)
        return statistics.fmean(medians.values())

    def tail(self) -> tuple[float, float, int]:
        """Operation time at the highest percentile with TAIL_BEYOND beyond it."""
        times = sorted(s for r in self.untraced for _, s in r.op_seconds)
        rank = max(1, len(times) - TAIL_BEYOND)
        return times[rank - 1], 100.0 * rank / len(times), len(times)

    def sim_rate(self) -> float:
        """Simulated node-seconds per host second of operations and report stages."""
        return (sum(r.node_seconds for r in self.untraced)
                / sum(r.busy_seconds for r in self.untraced))

    def layer_values(self) -> dict[str, float]:
        keys = {k for layer in self.layers for k in layer}
        values = {k: statistics.median_low(layer.get(k, 0) for layer in self.layers) for k in keys}
        values["trace.overhead_s"] = self.run_s(self.traced) - self.run_s(self.untraced)
        values["trace.overhead_frac"] = values["trace.overhead_s"] / self.run_s(self.untraced)
        return values


def traced_load_seconds(tracer, workloads, workload, seed: int) -> float:
    samples = []
    with tracer:
        for _ in range(LOAD_REPEATS):
            tracer.reset()
            workloads.load_scenarios(workload, seed)
            samples.append(tracer.seconds["harness.load_scenario"])
    return statistics.median(samples)


def setup_probe(args) -> float:
    """Set-up time of a fresh process, which pays the first import again."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

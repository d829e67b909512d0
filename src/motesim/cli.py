"""Command line front end: run scenarios and compare their trace CSVs."""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .harness import (
    PROTOCOLS,
    ScenarioConfig,
    ScenarioError,
    compare,
    emit_plot_data,
    load_scenario,
    parse_trace_csv,
    simulate,
    write_csv,
    write_report_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motesim",
        description="Simulate IoT messaging protocols on a low-power mote "
                    "and report per-state power draw.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one protocol, write a trace CSV "
                                     "and print the run's notes")
    run.add_argument("--protocol", choices=PROTOCOLS,
                     help="application protocol for the client/server pair")
    run.add_argument("--duration", type=float, metavar="S",
                     help="simulated seconds (default 100)")
    run.add_argument("--interval", type=float, metavar="S",
                     help="sampling interval in seconds (default 10)")
    run.add_argument("--seed", type=int, metavar="N",
                     help="random seed (default 42)")
    run.add_argument("--scenario", metavar="FILE",
                     help="scenario file; flags above override its values")
    run.add_argument("--out", required=True, metavar="CSV",
                     help="output trace CSV path")

    cmp_parser = sub.add_parser(
        "compare", help="rank trace CSVs by average total power")
    cmp_parser.add_argument("csvs", nargs="+", metavar="CSV",
                            help="trace CSVs; prefix with LABEL= to name one")
    cmp_parser.add_argument("--report", metavar="CSV",
                            help="write the ranked comparison table here")
    cmp_parser.add_argument("--plot", metavar="FILE",
                            help="write grouped-bar plot data here")
    return parser


def _cmd_run(args) -> int:
    if args.scenario:
        config = load_scenario(args.scenario)
    else:
        config = ScenarioConfig()
    if args.protocol is not None:
        config.protocol = args.protocol
    if args.duration is not None:
        config.duration_s = args.duration
    if args.interval is not None:
        config.interval_s = args.interval
    if args.seed is not None:
        config.seed = args.seed
    sim = simulate(config)
    trace = sim.report_trace()
    write_csv(trace, args.out)
    print(f"{config.protocol}: {len(trace.rows)} intervals, "
          f"avg total {trace.avg.total_mw:.9f} mW -> {args.out}")
    notes = Counter(kind for _, _, kind, _ in sim.events)
    counts = ", ".join(f"{kind} {count}" for kind, count in sorted(notes.items()))
    print(f"notes: {counts or 'none'}")
    return 0


def _label_for(spec: str, used: set[str]) -> tuple[str, str]:
    if "=" in spec:
        label, path = spec.split("=", 1)
    else:
        path = spec
        label = Path(spec).stem
    if not label or label in used:
        raise ScenarioError(f"duplicate or empty label for {spec!r}; "
                            f"use LABEL=path to disambiguate")
    if any(char == "," or char.isspace() for char in label):
        raise ScenarioError(f"label {label!r} for {spec!r} holds a comma or whitespace, "
                            f"which the report and plot files separate fields by; "
                            f"use LABEL=path to name it")
    return label, path


def _cmd_compare(args) -> int:
    averages = {}
    used: set[str] = set()
    for spec in args.csvs:
        label, path = _label_for(spec, used)
        used.add(label)
        _, average = parse_trace_csv(path)
        if average is None:
            raise ScenarioError(f"{path}: trace has no avg row")
        averages[label] = average
    report = compare(averages)
    best = report.ranking[0]
    for rank, name in enumerate(report.ranking, start=1):
        sample = report.averages[name]
        if name == best:
            note = "best"
        else:
            note = f"+{report.vs_best[name] * 100.0:.1f}% vs {best}"
        print(f"{rank}. {name}: {sample.total_mw:.9f} mW ({note})")
    if args.report:
        write_report_csv(report, args.report)
        print(f"report -> {args.report}")
    if args.plot:
        emit_plot_data(report, args.plot)
        print(f"plot data -> {args.plot}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ScenarioError, ValueError, OSError) as err:
        print(f"motesim: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

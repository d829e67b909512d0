"""Tests of the benchmark itself: tracing must not change what motesim computes.

Run with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from motesim.engine import Engine  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    scenarios = workloads.load_scenarios(workload, seed=42)
    events = []
    original_run = vars(Engine)["run"]

    def run(engine, until):
        summary = original_run(engine, until)
        events.append(summary.events_dispatched)
        return summary

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "run", run)
        plain = workloads.run_pass(scenarios, workload, tmp_path)
    with Tracer() as tracer:
        traced = workloads.run_pass(scenarios, workload, tmp_path, plain.fingerprint)

    assert plain.failures == traced.failures == []
    assert traced.fingerprint == plain.fingerprint
    assert tracer.counts["engine.events"] == sum(events)
    frames = sum(plain.fingerprint[s.label]["frames_sent"] for s in scenarios)
    assert tracer.counts["medium.broadcast"] == frames
    assert vars(Engine)["run"] is original_run


def test_changed_output_counts_as_failed(tmp_path):
    workload = workloads.WORKLOADS["default4"]
    scenarios = workloads.load_scenarios(workload, seed=42)
    reference = workloads.run_pass(scenarios, workload, tmp_path).fingerprint
    label = scenarios[0].label
    reference[label] = {**reference[label], "csv_sha256": "0" * 64}

    result = workloads.run_pass(scenarios, workload, tmp_path, reference)

    assert result.failed_ops == 1
    assert result.failures == [f"{label}: output differs from the warm-up pass"]

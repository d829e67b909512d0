"""The benchmark's per-layer tracer still sees every layer of a run.

perfbench/tracer.py wraps motesim functions where their callers look them up.
Code that binds one of those names before a run starts (at import, say) keeps
calling the unwrapped function, and the per-layer metric the benchmark reports
for it reads 0 without any error. These counts, taken over the four default
scenarios and over the crowd50 benchmark scenario at seed 42, fail instead. A
run encodes and decodes each distinct input once, so the codec counts are
distinct messages per run.
"""

import importlib.util
from pathlib import Path

import pytest

from motesim import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

DEFAULT_RUN_COUNTS = {
    "protocols.step": 336,
    "protocols.encode": 128,
    "protocols.decode": 131,
    "energy.transition": 0,  # settle() books a duty-cycled radio by replay
    "energy.settle": 80,
    "medium.broadcast": 351,
    "medium.send_frame": 351,
    "medium.deliver": 351,
    "medium.hear": 351,
    "powertrace.sample": 80,
    "engine.events": 1173,
}

CROWD50_RUN_COUNTS = {
    "protocols.step": 3188,
    "protocols.encode": 93,
    "protocols.decode": 92,
    "energy.transition": 0,
    "energy.settle": 510,
    "medium.broadcast": 2157,
    "medium.send_frame": 2157,
    "medium.deliver": 2156,
    "medium.hear": 2156,
    "powertrace.sample": 510,
    "engine.events": 8491,
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _default4():
    return [harness.ScenarioConfig(protocol=protocol, seed=42) for protocol in harness.PROTOCOLS]


def _crowd50():
    config = harness.load_scenario(PERFBENCH / "scenarios" / "crowd50.ini")
    config.seed = 42
    return [config.validate()]


@pytest.mark.parametrize("configs, expected", [(_default4, DEFAULT_RUN_COUNTS),
                                               (_crowd50, CROWD50_RUN_COUNTS)],
                         ids=["default4", "crowd50"])
def test_tracer_counts_each_layer_of_a_run(configs, expected):
    with _tracer_module().Tracer() as tracer:
        for config in configs():
            harness.simulate(config)
    assert {key: tracer.counts[key] for key in expected} == expected

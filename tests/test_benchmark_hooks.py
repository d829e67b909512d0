"""The benchmark's per-layer tracer still sees every layer of a run.

perfbench/tracer.py wraps motesim functions where their callers look them up.
Code that binds one of those names before a run starts (at import, say) keeps
calling the unwrapped function, and the per-layer metric the benchmark reports
for it reads 0 without any error. These counts, taken over the four default
scenarios at seed 42, fail instead. A run encodes and decodes each distinct
input once, so the codec counts are distinct messages per run.
"""

import importlib.util
from pathlib import Path

from motesim import harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

DEFAULT_RUN_COUNTS = {
    "protocols.step": 336,
    "protocols.encode": 128,
    "protocols.decode": 131,
    "energy.transition": 702,
    "energy.settle": 80,
    "medium.broadcast": 351,
    "engine.events": 1173,
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_each_layer_of_the_default_runs():
    with _tracer_module().Tracer() as tracer:
        for protocol in harness.PROTOCOLS:
            harness.simulate(harness.ScenarioConfig(protocol=protocol, seed=42))
    counts = {key: tracer.counts[key] for key in DEFAULT_RUN_COUNTS}
    assert counts == DEFAULT_RUN_COUNTS

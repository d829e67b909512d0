"""Property: a config either fails validation or runs to the end with sound books.

Every config that ScenarioConfig.validate() accepts must run to the end, with
cpu + lpm ticks equal to the interval and tx + rx ticks at most the interval on
every node and in every interval (equal to it without duty cycling), TX ticks
equal to the airtime each node sent, and no message that its receiver cannot
parse. Every other config must fail with a ScenarioError before the run starts.

Nodes account their radio lazily, so when a node settles must not matter:
settling some nodes at extra points of the event order leaves every trace row
as it was, and a run sampled once books on every node the sums of the rows of
the same run sampled at every interval.

Every trace that write_csv writes, at any magnitude of power, parses back.

Every record of the protocols package (actions, events, ClientConfig and the
messages) is immutable, hashable and equal only to a record of its own type.
Only the classes named in DATACLASSES are dataclasses, whose creation costs
several times a NamedTuple's at every import.
"""

import dataclasses
import inspect
import operator
import random
import sys
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motesim import harness
from motesim.energy import PowerSample, total_power
from motesim.engine import seconds_to_ticks
from motesim.harness import PROTOCOLS, ScenarioConfig, ScenarioError, simulate
from motesim.medium import CpuCostModel, DutyCycleConfig, RadioMedium, airtime_ticks
from motesim.powertrace import TraceRow, summarize
from motesim.protocols import actions, messages

DELTAS = operator.attrgetter("cpu_delta", "lpm_delta", "tx_delta", "rx_delta")

# Characters that split an HTTP request line or header, or an ini value.
TEXT = st.text(alphabet="ab/: \r\n", max_size=40)

# Duty cycling off, or check periods P of 1 s, 1/8 s and 64 ticks with widths
# from none to one period, so that window ends, hold ends and checks coincide.
DUTIES = [DutyCycleConfig(enabled=False)] + [
    DutyCycleConfig(True, rate, width)
    for rate, period in ((1, 32768), (8, 4096), (512, 64))
    for width in (0, 32, period - 1, period)
]

CONFIGS = st.builds(
    ScenarioConfig,
    protocol=st.sampled_from(PROTOCOLS),
    duration_s=st.just(20.0),
    clients=st.integers(1, 4),
    payload_bytes=st.integers(0, 300),
    tx_success=st.sampled_from((1.0, 0.7)),
    duty=st.sampled_from(DUTIES),
    topic=TEXT,
    http_path=TEXT,
    host=TEXT,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(CONFIGS)
def test_accepted_configs_run_to_the_end_with_sound_books(config):
    try:
        config.validate()
    except ScenarioError:
        return
    sim = simulate(config)
    interval_ticks = seconds_to_ticks(config.interval_s)
    for trace in sim.traces.values():
        assert [row.cpu_delta + row.lpm_delta for row in trace.rows] == [interval_ticks] * 2
        assert all(row.tx_delta + row.rx_delta <= interval_ticks for row in trace.rows)
        if not config.duty.enabled:  # an always-on radio is in TX or RX throughout
            assert [row.tx_delta + row.rx_delta for row in trace.rows] == [interval_ticks] * 2
    for node in sim.nodes.values():
        assert node.ledger.tx_ticks == sum(airtime_ticks(f.length_bytes) for f in node.sent_frames)
    assert "parse-error" not in [kind for _, _, kind, _ in sim.events]
    for runtime in sim.runtimes.values():  # every awaited ack still has its timer armed
        assert set(getattr(runtime.state, "unacked", ())) <= runtime.timers.keys()


TRAFFIC = st.builds(
    ScenarioConfig,
    protocol=st.sampled_from(PROTOCOLS),
    duration_s=st.just(10.0),
    interval_s=st.just(2.5),
    clients=st.integers(2, 5),
    payload_bytes=st.integers(0, 100),
    publish_period_s=st.sampled_from((0.25, 0.5)),
    tx_success=st.sampled_from((1.0, 0.7)),
    duty=st.sampled_from(DUTIES[1:]),
    cpu_cost=st.sampled_from((CpuCostModel(), CpuCostModel(0, 0), CpuCostModel(64, 0))),
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(TRAFFIC, st.integers(0, 2**32 - 1))
def test_extra_settles_change_no_trace_row(config, settle_seed):
    try:
        config.validate()
    except ScenarioError:
        return
    rng = random.Random(settle_seed)

    class SettlingMedium(RadioMedium):
        """Settles a random subset of its nodes every 500 to 8,000 ticks."""

        def __init__(self, engine, link, overheads):
            super().__init__(engine, link, overheads)
            engine.call_at(rng.randint(500, 8000), self._settle_some)

        def _settle_some(self):
            now = self.engine.now
            for node in self.nodes.values():
                if rng.random() < 0.5:
                    node.settle(now)
            self.engine.call_at(now + rng.randint(500, 8000), self._settle_some)

    plain = simulate(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "RadioMedium", SettlingMedium)
        settled = simulate(config)
    assert {node_id: trace.rows for node_id, trace in settled.traces.items()} == \
        {node_id: trace.rows for node_id, trace in plain.traces.items()}
    # One sample: each duty-cycled node replays the whole run in one call.
    once = simulate(dataclasses.replace(config, interval_s=config.duration_s))
    for node_id, trace in plain.traces.items():
        (row,) = once.traces[node_id].rows
        assert list(DELTAS(row)) == [sum(column) for column in zip(*map(DELTAS, trace.rows))]


def test_every_trace_write_csv_writes_parses_back(tmp_path):
    # columns up to 1e8 mW, spread evenly over the orders of magnitude
    rng = random.Random(7)
    path = tmp_path / "trace.csv"
    for _ in range(300):
        samples = []
        for k in range(1, rng.randint(1, 8) + 1):
            four = [rng.random() * 10.0 ** rng.randint(-9, 8) for _ in range(4)]
            samples.append(PowerSample(10.0 * k, *four, total_power(*four)))
        rows = [TraceRow(sample.interval_end_s, 0, 0, 0, 0, sample) for sample in samples]
        harness.write_csv(harness.Trace("mqtt", "client", rows, summarize(samples)), path)
        parsed, average = harness.parse_trace_csv(path)
        assert len(parsed) == len(rows) and average is not None


RECORDS = [cls for module in (actions, messages) for cls in vars(module).values()
           if inspect.isclass(cls) and issubclass(cls, tuple) and cls.__module__ == module.__name__]


def test_records_compare_by_type_hash_and_refuse_assignment():
    assert ({"CloseStream", "OpenStream", "MqttMsg", "MqttSnMsg", "CoapMsg", "HttpRequest"}
            <= {r.__name__ for r in RECORDS})
    for cls in RECORDS:
        values = tuple(f"v{i}" for i in range(len(cls._fields)))
        record = cls(*values)
        # other records of the same width, a namedtuple twin and the bare tuple
        twin = namedtuple(cls.__name__, cls._fields)(*values)
        others = [other(*values) for other in RECORDS
                  if other is not cls and len(other._fields) == len(values)]
        for other in [*others, twin, values]:
            assert not record == other and record != other, (cls, other)
        assert record == cls(*values) and not record != cls(*values)
        assert hash(record) == hash(cls(*values))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")


# The dataclasses left in motesim are the two that change in place:
# ScenarioConfig (the CLI and the benchmark set its seed and times) and
# EnergestLedger (its counters grow as a run settles; tests compare copies with ==).
DATACLASSES = {"ScenarioConfig", "EnergestLedger"}


def test_only_the_named_classes_are_dataclasses():
    import motesim.cli  # noqa: F401  the CLI imports every module

    found = set()
    for name, module in list(sys.modules.items()):
        if name == "motesim" or name.startswith("motesim."):
            found.update(cls.__name__ for cls in vars(module).values()
                         if inspect.isclass(cls) and cls.__module__ == name
                         and dataclasses.is_dataclass(cls))
    assert found == DATACLASSES

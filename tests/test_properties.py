"""Property: a config either fails validation or runs to the end with sound books.

Every config that ScenarioConfig.validate() accepts must run to the end, with
cpu + lpm ticks equal to the interval and tx + rx ticks at most the interval on
every node and in every interval, and no message that its receiver cannot
parse. Every other config must fail with a ScenarioError before the run starts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from motesim.engine import seconds_to_ticks
from motesim.harness import PROTOCOLS, ScenarioConfig, ScenarioError, simulate
from motesim.medium import DutyCycleConfig

# Characters that split an HTTP request line or header, or an ini value.
TEXT = st.text(alphabet="ab/: \r\n", max_size=40)

# Duty cycling off, or check periods P of 1 s, 1/8 s and 64 ticks with widths
# from none to two periods, so that window ends, hold ends and checks coincide.
DUTIES = [DutyCycleConfig(enabled=False)] + [
    DutyCycleConfig(True, rate, width)
    for rate, period in ((1, 32768), (8, 4096), (512, 64))
    for width in (0, 32, period - 1, period, 2 * period)
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
    assert "parse-error" not in [kind for _, _, kind, _ in sim.events]

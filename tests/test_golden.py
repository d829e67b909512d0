"""Golden output: byte-exact trace CSVs across protocols, loss, crowding and duty cycling.

Each digest is the SHA-256 over every node's trace CSV of one run, in node
order, each prefixed by its node id. The digests were recorded from the
simulator before the engine, medium and ledger were optimised; any change to
them means the simulated output changed, not just its speed.
"""

import hashlib
import itertools

import pytest

from motesim.harness import PROTOCOLS, ScenarioConfig, simulate, write_csv
from motesim.medium import CpuCostModel, DutyCycleConfig, Overheads

MATRIX = list(itertools.product(PROTOCOLS, (1.0, 0.7), (1, 10), (True, False)))

GOLDEN = {
    ('mqtt', 1.0, 1, True):
        'cf7ebd49a999092a9782dddc867ed1d0d58980f5e7d0e21a286bd34b371b2be2',
    ('mqtt', 1.0, 1, False):
        'a5f6d836de574aa0ae1e0331e68de48afe660d27b4130ca321ff67e8f2d9f11c',
    ('mqtt', 1.0, 10, True):
        '673a9b2782a3fbb591e44ab7eb010f5caa95f851ee71974796f77302ecbb1ef8',
    ('mqtt', 1.0, 10, False):
        'f280f83ca9e720d30bfb5b0e6ba6ac36d68163d2a8b02a40b7625bebe4797510',
    ('mqtt', 0.7, 1, True):
        '5efff2fc0a402ee3d31fcc6b9ca77903881d6273b7c4ed143b5231f857b8c484',
    ('mqtt', 0.7, 1, False):
        '29e29069dd014af0b8bd6140c35b6c871c8728e39e72c2421cd02d08f77c11ea',
    ('mqtt', 0.7, 10, True):
        'be51f1a14cbcee74de8272b99de68abe1187534c92f424c3248ac341ddb6f531',
    ('mqtt', 0.7, 10, False):
        'b30ea11b806dde67b4234e958a5427138e14fd06f06b5c6b10e511d0dcaa9d7e',
    ('mqtt-sn', 1.0, 1, True):
        '43c5f27085dad9fabf25bc67e6ef1b481b32362c43cc11d5db836d68d9d314b9',
    ('mqtt-sn', 1.0, 1, False):
        '70a4a1fb1b20bff1dbe913f88501d376cd733cce4e4f9be1e26b06347afb1b49',
    ('mqtt-sn', 1.0, 10, True):
        '7587c6082485284d1f8b35dfca8869a13c1f56453bac538a3c7551eed6ece771',
    ('mqtt-sn', 1.0, 10, False):
        '7bbcbfe968d76fb62d0c49d320b2bf94ba736753e6a0a271882a86acb115d364',
    ('mqtt-sn', 0.7, 1, True):
        'b692fc0156aa988807e1e7251e6f892f8f950ec01232a2a881efe3530079a6e2',
    ('mqtt-sn', 0.7, 1, False):
        'f10757eb838a98d636dcbce7c742c36e5444c33ba7244a78bade9b708d78b930',
    ('mqtt-sn', 0.7, 10, True):
        '1db431f1ee8a4667cd286fb714870893c745b9d99d2601ad6d110ebb3cced59d',
    ('mqtt-sn', 0.7, 10, False):
        '1ecc81049780e7014850dd36a7b6a5d45953cb4fe227ff1c3dc4657d81680ed9',
    ('coap', 1.0, 1, True):
        '9e36583be5fb2f36e24c1f688b89c2473fea3917f72b0261cfa97eaa52b74fc5',
    ('coap', 1.0, 1, False):
        '6639e2f7fb993cbddf07f722f62eaf098df4c52d9c4512543ca43560050cc1a2',
    ('coap', 1.0, 10, True):
        'c0291c0c85f2c3dae5d5139d1eb782b8971094b685c469d5ec83987a188c5f88',
    ('coap', 1.0, 10, False):
        '929c8491353e6daa0ecfeadfddb40e72f4374b7e8b60f3ff0568878f5a607328',
    ('coap', 0.7, 1, True):
        '377abec0d760799182c875b0f9d8c84cdb78c519f397487fea99fcdec66914a3',
    ('coap', 0.7, 1, False):
        'acaa29891abfbdc8137f561b2123ce7a9665046b5f9de5c5b175c439e4949734',
    ('coap', 0.7, 10, True):
        '7f1aff89684c484afab64a92232abef5912eff9f1692bd4b8ca7d6a216dc92b1',
    ('coap', 0.7, 10, False):
        'f645fc9e31642ced4768cf65e1d62b99486e37038547258d26c0a20e0762f268',
    ('http', 1.0, 1, True):
        'f22c7ff22cc498cd0c15cf6be50b71a1cc204dac9d713b6382414ddd36afad38',
    ('http', 1.0, 1, False):
        '144f418762146e3438154db4d39b1adf9162335f6f2ef21f91f8f0b6093563e3',
    ('http', 1.0, 10, True):
        '5ebb865ac40cc942967be4075f27a42d07ea59a7e9194ea3352c99cad31705a9',
    ('http', 1.0, 10, False):
        '91c9089c6c22cb21a6ea2eb07b4a1b97fc7433738902c6a5a27a14fd30a58ef5',
    ('http', 0.7, 1, True):
        'd85616bd3f8765928eb608f312b91aba7b0237b052335fb5ef355bd120e93c0a',
    ('http', 0.7, 1, False):
        '4bc97da66a3c697317771886af99d8458ce2ddbe23a9d1b787a8f4ef56878b6d',
    ('http', 0.7, 10, True):
        '80845bf5b5d01e6098d2826145782a53b3adbd97c6abc6a2519f82b05cd3ce5e',
    ('http', 0.7, 10, False):
        '6a1fcdb2b3a460402d3abd621c123b4edbb7d9886738b0c67f9329c1939ea470',
}


# Configs where same-tick order decides whether an idle check opens a window:
# a check period P of 4096 ticks unless the rate says otherwise, and check
# widths D from none up to P, so that window ends, checks and transmissions
# fall on one tick. Their digests were recorded while every check and window
# end was an event.
TIE_CASES = {
    "mqtt-4x-1hz-txloss": ScenarioConfig(
        protocol="mqtt", clients=4, tx_success=0.7, duty=DutyCycleConfig(True, 1, 32)),
    "coap-4x-d-eq-p-txloss": ScenarioConfig(
        protocol="coap", clients=4, tx_success=0.7, duty=DutyCycleConfig(True, 8, 4096)),
    "http-2x-period-0.125-d200": ScenarioConfig(
        protocol="http", clients=2, duration_s=20, publish_period_s=0.125,
        publish_offset_s=0.125, duty=DutyCycleConfig(True, 8, 200)),
    "mqtt-sn-d0": ScenarioConfig(protocol="mqtt-sn", duty=DutyCycleConfig(True, 8, 0)),
    "mqtt-zero-cpu-cost": ScenarioConfig(protocol="mqtt", cpu_cost=CpuCostModel(0, 0)),
    # 61-byte PUBLISH frames take 64 ticks = P at 512 Hz, so receive holds end
    # on check ticks: the first case needs some of those ends after the check,
    # the second some before it. Recorded while hold ends were events.
    "mqtt-sn-air-eq-p-cpu64": ScenarioConfig(
        protocol="mqtt-sn", duration_s=40, interval_s=5, seed=694706, payload_bytes=24,
        publish_period_s=0.3, publish_offset_s=0.125,
        duty=DutyCycleConfig(True, 512, 32), cpu_cost=CpuCostModel(64, 0)),
    "mqtt-sn-air-eq-p-qos0": ScenarioConfig(
        protocol="mqtt-sn", duration_s=40, interval_s=5, seed=764331, payload_bytes=24,
        publish_period_s=0.125, publish_offset_s=0.5, qos=0,
        duty=DutyCycleConfig(True, 512, 32), cpu_cost=CpuCostModel(0, 0)),
    # Frames overheard at a check tick, before and after that tick's check
    # round ran: whether the check opens a window and whether an airtime == P
    # hold end precedes the next check both depend on which side the frame
    # fell. Recorded while every listener heard each frame as it was sent.
    "mqtt-5x-d-eq-p-cpu0": ScenarioConfig(
        protocol="mqtt", duration_s=10, interval_s=2, seed=862147, clients=5,
        payload_bytes=5, publish_period_s=0.125, publish_offset_s=0.125, qos=1,
        tx_success=0.7, rx_success=0.8, duty=DutyCycleConfig(True, 8, 4096),
        cpu_cost=CpuCostModel(0, 0), overheads=Overheads(mtu_bytes=600)),
    "mqtt-sn-5x-256hz-cpu0": ScenarioConfig(
        protocol="mqtt-sn", duration_s=20, interval_s=5, seed=147143, clients=5,
        payload_bytes=5, publish_period_s=1, publish_offset_s=0, qos=1, tx_success=0.7,
        duty=DutyCycleConfig(True, 256, 128), cpu_cost=CpuCostModel(0, 0),
        overheads=Overheads(mtu_bytes=600)),
    # Six CoAP clients with no CPU cost at 256 Hz and D = P: 65 TX starts fall
    # on check ticks, and 236 frames are heard at the tick the hearer's own
    # TX ends. Recorded while every pipeline and radio change replayed at once.
    "coap-6x-256hz-cpu0-txloss": ScenarioConfig(
        protocol="coap", clients=6, cpu_cost=CpuCostModel(0, 0),
        duty=DutyCycleConfig(True, 256, 128), tx_success=0.7),
}

TIE_GOLDEN = {
    'mqtt-4x-1hz-txloss':
        '167370a5370b533e396f679d5338e97d5f3ad41232c6ae11a493711da5c23935',
    'coap-4x-d-eq-p-txloss':
        '9bb0cde1e6a8bd1a03bf81c5a91b7516c0f45a7a7bfa186aa1b5b718be1eb5c1',
    'http-2x-period-0.125-d200':
        'b120fccd41af67c229c86d2b9f4244d0cb0aa044bda7e94bb183e925e894801c',
    'mqtt-sn-d0':
        '588ecbedb34eeef8b41afeca7f50fc0ae795753385565dbc0f3bb4412757385a',
    'mqtt-zero-cpu-cost':
        '7d74fc2c768b3f4b222004e32da495c3ff18bdfa4fe115b493d933495562f626',
    'mqtt-sn-air-eq-p-cpu64':
        'c75f11e7fb9ad1c7c57709407d5014cbd4ddc245d1fa2a2a8a9a6def2fac9d7d',
    'mqtt-sn-air-eq-p-qos0':
        '6ba5b0c9adaf91425308a03bc0bee8e4d70bf004376da17a1b397c778acf511a',
    'mqtt-5x-d-eq-p-cpu0':
        '9c17a307d4d25a5979d53288be1774630b21c8d2cadb08cb50e90379e64268ac',
    'mqtt-sn-5x-256hz-cpu0':
        '985871534d00be026b564e6e5ff1ca05565879d6fac773bd758fc357b198f45c',
    'coap-6x-256hz-cpu0-txloss':
        'c2b3e2f3a70c00fb8ae65c8dfb2bcd5ceda7be88c9ff3432f4bfdab41d7faf55',
}


# Many senders on one channel. crowd50 puts 50 duty-cycled clients on the
# tick where they all publish, so every frame end wakes the senders that wait
# for it; client-50 and the server are just out of each other's range. Five
# always-on MQTT clients under frame loss defer behind each other's
# retransmissions. Recorded while every waiting sender was its own event.
# With a short range, senders hidden from each other wait for different
# frames: some wake-ups leave the senders still waiting held to different
# ticks. 40 duty-cycled MQTT-SN clients at 20 m (22 of them out of the
# gateway's range note connection-failed), and 20 always-on MQTT clients at
# 12 m under frame loss. Recorded while each waiting sender re-deferred on its
# own and each frame compared its addressee with every listener.
HERD_CASES = {
    "mqtt-sn-50x": ScenarioConfig(protocol="mqtt-sn", clients=50),
    "mqtt-5x-always-on-txloss": ScenarioConfig(
        protocol="mqtt", clients=5, tx_success=0.7, duty=DutyCycleConfig(enabled=False)),
    "mqtt-sn-40x-hidden": ScenarioConfig(protocol="mqtt-sn", clients=40, range_m=20),
    "mqtt-20x-always-on-hidden-txloss": ScenarioConfig(
        protocol="mqtt", clients=20, range_m=12, tx_success=0.7,
        duty=DutyCycleConfig(enabled=False)),
    # Listeners that hear the same frames share one replay of them. 20 MQTT-SN
    # clients over 300 s settle 30 times each, so the shared frame log is
    # trimmed many times; 12 CoAP clients at 256 Hz with D = P, 1 m apart
    # with the server among them and a range of 8 m, sit in overlapping cells.
    # Recorded while every listener replayed each frame on its own.
    "mqtt-sn-20x-300s": ScenarioConfig(
        protocol="mqtt-sn", clients=20, duration_s=300, interval_s=10),
    "coap-12x-256hz-d-eq-p-8m": ScenarioConfig(
        protocol="coap", clients=12, range_m=8, server_pos=(0.0, 5.5),
        duty=DutyCycleConfig(True, 256, 128)),
}

HERD_GOLDEN = {
    'mqtt-sn-50x':
        '001414300ddb8b37041902f7b8240990b8480274d22a381813a201e3dffceac1',
    'mqtt-5x-always-on-txloss':
        'b9767f5c04229b9d96d799dbd948f01001ed2477a24c03aa3d3eaa615fad804c',
    'mqtt-sn-40x-hidden':
        'a86eca50b81369fa577c9810736a532d38d99439b389f513cb228c87e2e6494f',
    'mqtt-20x-always-on-hidden-txloss':
        'dd2f85296fbb130546faad466320efce1fb33e20a4beb5a939aa0b6a7fbdd29c',
    'mqtt-sn-20x-300s':
        '60fce333bcf5fb48f787afb2c241569da4ab32c3d4929ec93fb1b95a6283eb6e',
    'coap-12x-256hz-d-eq-p-8m':
        '7715e7adc40155aa5d6dd3027c085f598f0741879fe2867b4d675e0a1f175241',
}


# An MQTT client that publishes every 45 s, longer than the 30 s keepalive: its
# ping timer fires, a PINGREQ goes on air, the broker answers with a PINGRESP,
# and the run notes nothing.
KEEPALIVE_CASE = ScenarioConfig(protocol="mqtt", publish_period_s=45.0, duration_s=200.0)
KEEPALIVE_GOLDEN = 'ec32158760c5afb3ded4ea3365fc536b10ccdaa650d7e69954f0b60da49bb3e2'


def run_digest(protocol, tx_success, clients, duty, tmp_path) -> str:
    return config_digest(ScenarioConfig(protocol=protocol, tx_success=tx_success,
                                        clients=clients,
                                        duty=DutyCycleConfig(enabled=duty)), tmp_path)


def config_digest(config, tmp_path) -> str:
    sim = simulate(config)
    digest = hashlib.sha256()
    for node_id, trace in sim.traces.items():
        path = tmp_path / f"{node_id}.csv"
        write_csv(trace, path)
        digest.update(node_id.encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("protocol,tx_success,clients,duty", MATRIX)
def test_trace_csvs_match_golden(protocol, tx_success, clients, duty, tmp_path):
    key = (protocol, tx_success, clients, duty)
    assert run_digest(*key, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize("name", TIE_CASES)
def test_same_tick_duty_cases_match_golden(name, tmp_path):
    assert config_digest(TIE_CASES[name], tmp_path) == TIE_GOLDEN[name]


@pytest.mark.parametrize("name", HERD_CASES)
def test_many_sender_cases_match_golden(name, tmp_path):
    assert config_digest(HERD_CASES[name], tmp_path) == HERD_GOLDEN[name]


def test_mqtt_keepalive_ping_run_matches_golden(tmp_path):
    assert config_digest(KEEPALIVE_CASE, tmp_path) == KEEPALIVE_GOLDEN

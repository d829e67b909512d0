"""Scenario configuration, end-to-end runs, CSV I/O, comparison, and the CLI."""

import configparser
import math
import re
from pathlib import Path

import pytest

import motesim
from motesim.cli import main
from motesim.energy import PowerSample
from motesim.harness import (
    CSV_HEADER,
    ComparisonReport,
    ScenarioConfig,
    ScenarioError,
    compare,
    emit_plot_data,
    load_scenario,
    parse_trace_csv,
    run_scenario,
    scenario_schema,
    simulate,
    write_csv,
    write_report_csv,
)
from motesim.medium import CpuCostModel, DutyCycleConfig, Overheads

SHORT = dict(duration_s=20.0, interval_s=10.0)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _error_kinds(sim):
    return [kind for _, _, kind, _ in sim.events
            if "fail" in kind or "error" in kind or "dropped" in kind]


# -- configuration -----------------------------------------------------------

def test_defaults_validate():
    config = ScenarioConfig()
    assert config.validate() is config
    assert config.client_ids() == ["client"]


def test_multi_client_ids_are_numbered():
    assert ScenarioConfig(clients=3).client_ids() == [
        "client-1", "client-2", "client-3"]
    ScenarioConfig(clients=3, report_node="client-3").validate()


@pytest.mark.parametrize("overrides", [
    dict(protocol="amqp"),
    dict(duration_s=0.0),
    dict(interval_s=-1.0),
    dict(interval_s=200.0),
    dict(duration_s=95.0),
    dict(clients=0),
    dict(qos=2),
    dict(tx_success=1.5),
    dict(rx_success=-0.1),
    dict(range_m=math.nan),
    dict(client_pos=(0.0, math.inf)),
    dict(overheads=Overheads(link_bytes=-5)),  # runs, with meaningless numbers
    dict(cpu_cost=CpuCostModel(ticks_per_message=-10)),
    dict(report_node="router"),  # caught before `motesim run` simulates
    dict(clients=2, report_node="client"),
    # a CoAP topic is the Uri-Path, at most 255 bytes (RFC 7252 section 5.10)
    dict(protocol="coap", topic="t" * 256, overheads=Overheads(mtu_bytes=600)),
])
def test_validate_rejects_bad_values(overrides):
    with pytest.raises(ScenarioError):
        ScenarioConfig(**overrides).validate()


@pytest.mark.parametrize("overrides", [
    dict(payload_bytes=-1),
    dict(duty=DutyCycleConfig(True, 0, 32)),
    dict(duty=DutyCycleConfig(True, 7, 32)),
    dict(duty=DutyCycleConfig(True, 8, -5)),
    dict(duration_s=math.inf),
    dict(duration_s=math.nan),
    dict(publish_period_s=math.nan),
    dict(publish_offset_s=math.inf),
    dict(interval_s=0.1, duration_s=1.0),  # 3276.8 ticks per interval
    dict(topic="tempé"),  # the codecs write ASCII only
    dict(client_id="zé"),
    dict(protocol="http", host="sérveur"),
    dict(protocol="mqtt-sn", payload_bytes=200),  # a 237 B PUBLISH frame, MTU 127 B
    dict(protocol="coap", payload_bytes=200),  # a 243 B response frame
    dict(protocol="mqtt-sn", payload_bytes=91),  # 128 B, one byte over
    dict(protocol="coap", payload_bytes=85),
    dict(protocol="mqtt-sn", clients=3, client_id="c" * 120),  # a 158 B CONNECT
    dict(protocol="mqtt-sn", payload_bytes=300, overheads=Overheads(mtu_bytes=600)),
    dict(protocol="mqtt", overheads=Overheads(mtu_bytes=50)),  # no room for stream data
    dict(protocol="http", overheads=Overheads(mtu_bytes=45)),
    dict(overheads=Overheads(link_bytes=-60)),  # negative airtime
    dict(protocol="mqtt-sn", overheads=Overheads(datagram_bytes=-30)),
    dict(overheads=Overheads(stream_bytes=-50)),
    dict(cpu_cost=CpuCostModel(ticks_per_message=-100)),  # schedules into the past
    dict(cpu_cost=CpuCostModel(ticks_per_byte=-5)),
    dict(protocol="mqtt", topic="t" * 65536),  # MQTT strings carry a 16-bit length
    dict(protocol="mqtt", client_id="c" * 70000),
    dict(protocol="http", http_path="a b"),  # every request noted a parse-error
    dict(protocol="http", http_path="/x\r\nY: z"),
    dict(protocol="http", host="h\r\nX: y"),  # silently injected a header
])
def test_configs_that_would_fail_mid_run_fail_validation(overrides):
    # each of these once passed validate() (or raised something other than a
    # ScenarioError) and failed inside the run; simulate() must now stop at
    # validation with a ScenarioError
    with pytest.raises(ScenarioError):
        ScenarioConfig(**overrides).validate()
    with pytest.raises(ScenarioError):
        simulate(ScenarioConfig(**{"duration_s": 10.0, **overrides}))


@pytest.mark.parametrize("overrides", [
    dict(protocol="mqtt", payload_bytes=120),  # a 3-byte remaining length
    dict(protocol="mqtt", payload_bytes=2000, overheads=Overheads(mtu_bytes=600)),
    dict(protocol="coap", topic="temperature-x"),  # a 13-byte Uri-Path
    dict(protocol="coap", topic="t" * 255, payload_bytes=10, overheads=Overheads(mtu_bytes=600)),
    dict(protocol="mqtt-sn", payload_bytes=90),  # exactly 127 B
    dict(protocol="coap", payload_bytes=84),
])
def test_configs_at_codec_and_mtu_limits_run_to_the_end(overrides):
    # each of these once failed inside the run
    config = ScenarioConfig(**{**SHORT, **overrides})
    sim = simulate(config)
    assert _error_kinds(sim) == []
    if config.protocol == "coap":
        delivered = [m.payload for m in sim.runtimes["client"].state.responses]
    else:
        server = sim.runtimes["server"].state
        delivered = [m.payload for _, m in getattr(server, "broker", server).received]
    assert delivered == [bytes(config.payload_bytes)] * 4  # publishes at 1, 6, 11, 16 s


def test_load_scenario_full_file(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(
        "[scenario]\n"
        "protocol = coap\n"
        "duration_s = 40\n"
        "interval_s = 20\n"
        "seed = 7\n"
        "clients = 2\n"
        "payload_bytes = 16\n"
        "publish_period_s = 4\n"
        "publish_offset_s = 0.5\n"
        "qos = 0\n"
        "topic = hum\n"
        "client_id = m3\n"
        "[currents]\n"
        "lpm_ma = 0.026\n"
        "[radio]\n"
        "range_m = 30\n"
        "tx_success = 0.9\n"
        "server_pos = 5, 1\n"
        "[duty]\n"
        "check_duration_ticks = 8\n"
        "[overheads]\n"
        "stream_bytes = 40\n"
        "[cpu]\n"
        "ticks_per_byte = 3\n"
    )
    config = load_scenario(path)
    assert config.protocol == "coap"
    assert config.duration_s == 40.0 and config.interval_s == 20.0
    assert config.seed == 7 and config.clients == 2
    assert config.payload_bytes == 16 and config.qos == 0
    assert config.publish_period_s == 4.0 and config.publish_offset_s == 0.5
    assert config.topic == "hum" and config.client_id == "m3"
    assert config.profile.lpm_ma == 0.026
    assert config.profile.cpu_active_ma == 4.0  # untouched default
    assert config.range_m == 30.0 and config.tx_success == 0.9
    assert config.server_pos == (5.0, 1.0)
    assert config.duty.check_duration_ticks == 8 and config.duty.enabled
    assert config.overheads.stream_bytes == 40
    assert config.cpu_cost.ticks_per_byte == 3


@pytest.mark.parametrize("text, named", [
    ("[radoi]\nrange_m = 30\n", "[radoi]"),
    ("[scenario]\nduraton_s = 20\n", "scenario.duraton_s"),
    ("[DEFAULT]\nseed = 7\n[scenario]\n", "[DEFAULT]"),
    ("[scenario]\nduration_s = inf\n", "scenario.duration_s"),
])
def test_scenario_file_errors_name_the_section_and_key(tmp_path, capsys, text, named):
    path = tmp_path / "s.ini"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(named)):
        load_scenario(path)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_package_exports_exactly_the_readme_api():
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)`", section, re.MULTILINE)
    assert sorted(motesim.__all__) == sorted(names)
    exported = {}
    exec("from motesim import *", exported)
    assert sorted(set(exported) - {"__builtins__"}) == sorted(names)


def test_readme_lists_exactly_the_scenario_keys_and_defaults(tmp_path):
    text = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.DOTALL).group(1)
    readme = configparser.ConfigParser(interpolation=None)
    readme.read_string(block)
    listed = {section: list(readme[section]) for section in readme.sections()}
    assert listed == {section: list(keys) for section, keys in scenario_schema().items()}
    # the block loads as it stands, and the values shown are the defaults
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_scenario(path) == ScenarioConfig()


def test_percent_in_a_value_is_literal(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[scenario]\nduration_s = 10\ntopic = 50%\n")
    assert load_scenario(path).topic == "50%"
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "t.csv")]) == 0


# What each benchmark scenario file loads to; the benchmark's recorded
# fingerprints were taken with exactly these configs.
PERFBENCH_SCENARIOS = {
    "crowd50": ScenarioConfig(protocol="mqtt-sn", clients=50),
    "default-coap": ScenarioConfig(protocol="coap"),
    "default-http": ScenarioConfig(protocol="http"),
    "default-mqtt-sn": ScenarioConfig(protocol="mqtt-sn"),
    "default-mqtt": ScenarioConfig(protocol="mqtt"),
    "lossy-http": ScenarioConfig(protocol="http", clients=5, duration_s=1000.0,
                                 tx_success=0.7, duty=DutyCycleConfig(enabled=False)),
    "lossy-mqtt": ScenarioConfig(protocol="mqtt", clients=5, duration_s=1000.0,
                                 tx_success=0.7, duty=DutyCycleConfig(enabled=False)),
}


def test_benchmark_scenario_files_load_unchanged():
    directory = REPO_ROOT / "perfbench" / "scenarios"
    loaded = {path.stem: load_scenario(path) for path in directory.glob("*.ini")}
    assert loaded == PERFBENCH_SCENARIOS


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "absent.ini")


def test_load_scenario_names_the_bad_key(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[scenario]\nduration_s = ten\n")
    with pytest.raises(ScenarioError, match=r"scenario\.duration_s"):
        load_scenario(path)


def test_load_scenario_wraps_current_validation(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[currents]\nlpm_ma = 9\n")
    with pytest.raises(ScenarioError, match="currents"):
        load_scenario(path)


def test_load_scenario_applies_validate(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[scenario]\nprotocol = amqp\n")
    with pytest.raises(ScenarioError, match="unknown protocol"):
        load_scenario(path)
    path.write_text("[scenario]\nduration_s = 95\n")
    with pytest.raises(ScenarioError, match="whole multiple"):
        load_scenario(path)


# -- end-to-end runs ---------------------------------------------------------

def test_run_scenario_row_grid_and_average():
    trace = run_scenario(ScenarioConfig(protocol="coap", **SHORT))
    assert len(trace.rows) == 2
    assert [row.interval_end_s for row in trace.rows] == [10.0, 20.0]
    expected = sum(row.sample.total_mw for row in trace.rows) / 2
    assert math.isclose(trace.avg.total_mw, expected, rel_tol=1e-12)
    assert trace.node_id == "client" and trace.protocol == "coap"


def test_run_scenario_unknown_report_node():
    config = ScenarioConfig(report_node="router", **SHORT)
    with pytest.raises(ScenarioError, match="unknown report node"):
        run_scenario(config)


def test_run_scenario_can_report_the_server():
    config = ScenarioConfig(report_node="server", **SHORT)
    trace = run_scenario(config)
    assert trace.node_id == "server"
    assert trace.avg.rx_mw > 0.0


def test_simulate_clean_run_has_no_failures():
    sim = simulate(ScenarioConfig(protocol="mqtt", **SHORT))
    assert _error_kinds(sim) == []
    assert set(sim.nodes) == {"client", "server"}
    assert set(sim.traces) == {"client", "server"}


def test_simulate_two_clients():
    sim = simulate(ScenarioConfig(protocol="mqtt-sn", clients=2, **SHORT))
    assert set(sim.nodes) == {"client-1", "client-2", "server"}
    assert _error_kinds(sim) == []
    for client in ("client-1", "client-2"):
        assert sim.traces[client].avg.tx_mw > 0.0


def test_runtime_notes_an_unparsable_datagram():
    sim = simulate(ScenarioConfig(protocol="mqtt-sn", **SHORT))
    # a CONNECT whose client id is not ASCII
    sim.runtimes["server"]._on_datagram("client", b"\x07\x04\x00\x01\x00\x1e\xe9")
    assert sim.events[-1][2] == "parse-error"


def test_identical_configs_give_identical_csv_bytes(tmp_path):
    paths = []
    for name in ("one.csv", "two.csv"):
        trace = run_scenario(ScenarioConfig(protocol="mqtt-sn", **SHORT))
        path = tmp_path / name
        write_csv(trace, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# -- CSV I/O -----------------------------------------------------------------

def test_csv_round_trip_and_formatting(tmp_path):
    trace = run_scenario(ScenarioConfig(protocol="http", **SHORT))
    path = tmp_path / "t.csv"
    write_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("10,")  # whole seconds bare, no trailing .0
    assert lines[-1].startswith("avg,")
    assert len(lines) == 2 + len(trace.rows)

    rows, average = parse_trace_csv(path)
    assert average is not None
    assert len(rows) == len(trace.rows)
    for parsed, row in zip(rows, trace.rows):
        assert parsed.interval_end_s == row.interval_end_s
        assert math.isclose(parsed.total_mw, row.sample.total_mw, abs_tol=5e-10)
    assert math.isclose(average.total_mw, trace.avg.total_mw, abs_tol=5e-10)


def test_csv_time_labels_parse_back_exactly(tmp_path):
    from motesim.harness import Trace
    from motesim.powertrace import TraceRow
    sample = PowerSample(0, 1.0, 0.0, 0.0, 0.0, 1.0)
    times = [100000.5, 1000000.0, 1000005.0, 1000015.0, 1000020.0, 2.5e-05]
    rows = [TraceRow(t, 0, 0, 0, 0, sample) for t in times]
    path = tmp_path / "long.csv"
    write_csv(Trace("mqtt", "client", rows, sample), path)
    labels = [line.split(",")[0] for line in path.read_text().splitlines()[1:-1]]
    assert labels[1:3] == ["1000000", "1000005"]
    parsed, _ = parse_trace_csv(path)
    assert [row.interval_end_s for row in parsed] == times


def test_write_csv_rejects_empty_trace(tmp_path):
    from motesim.harness import Trace
    empty = Trace("mqtt", "client", [], PowerSample(0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        write_csv(empty, tmp_path / "never.csv")


def test_parse_trace_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        parse_trace_csv(path)
    for rows, problem in [
        (["1,2,3"], "3 fields, not 6"),
        (["10,abc,0,0,0,0"], "could not convert string to float: 'abc'"),
        (["10,-0.1,0,0.2,0,0.1"], "negative value"),
        (["avg,0.1,0,0,0,0.0"], "not the sum of its columns"),
        (["10,0.1,0.1,0.1,0.1,0.400000004"], "not the sum of its columns"),
        (["avg,0.1,0,0,0,0.1", "avg,0.1,0,0,0,0.1"], "after the avg row"),
        (["avg,0.1,0,0,0,0.1", "10,0.1,0,0,0,0.1"], "after the avg row"),
    ]:
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=problem) as raised:
            parse_trace_csv(path)
        assert str(path) in str(raised.value) and repr(rows[-1]) in str(raised.value)


def test_parse_trace_csv_allows_for_rounding_of_the_total(tmp_path):
    path = tmp_path / "rounded.csv"
    path.write_text(f"{CSV_HEADER}\n10,0.1,0.1,0.1,0.1,0.400000002\n"
                    f"avg,0.1,0.1,0.1,0.1,0.399999998\n")
    rows, average = parse_trace_csv(path)
    assert rows[0].total_mw == 0.400000002 and average.total_mw == 0.399999998


# -- comparison --------------------------------------------------------------

def _avg(total, cpu=0.1, lpm=0.0, tx=0.1, rx=0.1):
    return PowerSample(0.0, cpu, lpm, tx, rx, total)


def test_compare_ranks_by_total():
    report = compare({"b": _avg(2.0), "a": _avg(3.0), "c": _avg(1.0)})
    assert report.ranking == ["c", "b", "a"]


def test_compare_breaks_ties_alphabetically():
    report = compare({"beta": _avg(1.0), "alpha": _avg(1.0)})
    assert report.ranking == ["alpha", "beta"]


def test_compare_totals_against_best():
    report = compare({"x": _avg(1.5), "y": _avg(1.0), "z": _avg(1.0), "w": _avg(1.75)})
    assert report.vs_best == {"x": 0.5, "y": 0.0, "z": 0.0, "w": 0.75}


def test_compare_zero_denominator():
    report = compare({"x": _avg(0.1), "y": _avg(0.0)})
    assert report.vs_best == {"x": math.inf, "y": 0.0}
    flat = compare({"x": _avg(0.0), "y": _avg(0.0)})
    assert flat.vs_best == {"x": 0.0, "y": 0.0}


def test_compare_is_order_independent():
    samples = {"m": _avg(2.0), "n": _avg(1.0), "o": _avg(3.0)}
    forward = compare(dict(samples))
    reverse = compare(dict(reversed(list(samples.items()))))
    assert forward.ranking == reverse.ranking
    assert forward.vs_best == reverse.vs_best


def test_compare_needs_two():
    with pytest.raises(ValueError):
        compare({"solo": _avg(1.0)})


def test_report_csv_and_plot_data(tmp_path):
    report = compare({"fast": _avg(1.0), "slow": _avg(1.25)})
    report_path = tmp_path / "report.csv"
    write_report_csv(report, report_path)
    lines = report_path.read_text().splitlines()
    assert lines[0].startswith("protocol,rank,")
    assert lines[1].startswith("fast,1,")
    assert lines[1].endswith(",0.0")
    assert lines[2].startswith("slow,2,")
    assert lines[2].endswith(",25.0")

    plot_path = tmp_path / "plot.dat"
    emit_plot_data(report, plot_path)
    plot = plot_path.read_text().splitlines()
    assert plot[0] == "# protocol cpu_mw lpm_mw tx_mw rx_mw total_mw"
    assert plot[1].split()[0] == "fast"
    assert plot[2].split()[0] == "slow"
    assert len(plot[1].split()) == 6


def test_compare_outputs_byte_for_byte(tmp_path, capsys):
    averages = {"sn": "0.040000000,0.000298916,0.060000000,0.400000000,0.500298916",
                "mqtt": "0.100000000,0.000298916,0.150000000,0.500000000,0.750298916",
                "coap": "0.050000000,0.000298916,0.050000000,0.400000000,0.500298916"}
    specs = []
    for name, columns in averages.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{CSV_HEADER}\n10,{columns}\navg,{columns}\n")
        specs.append(str(path))
    report, plot = tmp_path / "report.csv", tmp_path / "plot.dat"
    assert main(["compare", *specs, "--report", str(report), "--plot", str(plot)]) == 0
    assert capsys.readouterr().out == (
        "1. coap: 0.500298916 mW (best)\n"
        "2. sn: 0.500298916 mW (+0.0% vs coap)\n"
        "3. mqtt: 0.750298916 mW (+50.0% vs coap)\n"
        f"report -> {report}\n"
        f"plot data -> {plot}\n"
    )
    assert report.read_bytes() == (
        b"protocol,rank,cpu_mw,lpm_mw,tx_mw,rx_mw,total_mw,total_vs_best_pct\n"
        b"coap,1,0.050000000,0.000298916,0.050000000,0.400000000,0.500298916,0.0\n"
        b"sn,2,0.040000000,0.000298916,0.060000000,0.400000000,0.500298916,0.0\n"
        b"mqtt,3,0.100000000,0.000298916,0.150000000,0.500000000,0.750298916,50.0\n"
    )
    assert plot.read_bytes() == (
        b"# protocol cpu_mw lpm_mw tx_mw rx_mw total_mw\n"
        b"coap 0.050000000 0.000298916 0.050000000 0.400000000 0.500298916\n"
        b"sn 0.040000000 0.000298916 0.060000000 0.400000000 0.500298916\n"
        b"mqtt 0.100000000 0.000298916 0.150000000 0.500000000 0.750298916\n"
    )


# -- CLI ---------------------------------------------------------------------

def test_cli_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "coap.csv"
    rc = main(["run", "--protocol", "coap", "--duration", "20",
               "--interval", "10", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("coap: 2 intervals")
    rows, average = parse_trace_csv(out)
    assert len(rows) == 2 and average is not None


def test_cli_flags_override_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "s.ini"
    scenario.write_text("[scenario]\nprotocol = mqtt\nduration_s = 50\n")
    out = tmp_path / "t.csv"
    rc = main(["run", "--scenario", str(scenario), "--protocol", "coap",
               "--duration", "20", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("coap: 2 intervals")


def test_cli_run_prints_the_notes_of_every_node(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["run", "--protocol", "coap", "--duration", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "notes: none"
    # the gateway is out of range: the client notes the failed connect and
    # the run still writes its trace
    scenario = tmp_path / "far.ini"
    scenario.write_text("[scenario]\nprotocol = mqtt-sn\nduration_s = 20\n"
                        "[radio]\nserver_pos = 100, 0\n")
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    summary, notes = capsys.readouterr().out.splitlines()
    assert summary.startswith("mqtt-sn: 2 intervals")
    assert notes.startswith("notes: ") and "connection-failed 1" in notes
    assert len(parse_trace_csv(out)[0]) == 2


def test_cli_run_reports_errors(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "absent.ini"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "motesim: error:" in capsys.readouterr().err


def _write_short_trace(tmp_path, protocol, name):
    trace = run_scenario(ScenarioConfig(protocol=protocol, **SHORT))
    path = tmp_path / name
    write_csv(trace, path)
    return path


def test_cli_compare_ranks_and_writes_outputs(tmp_path, capsys):
    a = _write_short_trace(tmp_path, "mqtt-sn", "sn.csv")
    b = _write_short_trace(tmp_path, "http", "http.csv")
    report = tmp_path / "report.csv"
    plot = tmp_path / "plot.dat"
    rc = main(["compare", str(a), str(b),
               "--report", str(report), "--plot", str(plot)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "1. sn:" in stdout and "(best)" in stdout
    assert "2. http:" in stdout and "% vs sn)" in stdout
    assert report.read_text().startswith("protocol,rank,")
    assert plot.read_text().startswith("# protocol ")


def test_cli_compare_custom_labels(tmp_path, capsys):
    a = _write_short_trace(tmp_path, "coap", "one.csv")
    b = _write_short_trace(tmp_path, "mqtt", "two.csv")
    rc = main(["compare", f"rest={a}", f"broker={b}"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rest:" in stdout and "broker:" in stdout


def test_cli_compare_duplicate_labels(tmp_path, capsys):
    a = _write_short_trace(tmp_path, "coap", "dup.csv")
    rc = main(["compare", str(a), str(a)])
    assert rc == 1
    assert "duplicate or empty label" in capsys.readouterr().err


def test_cli_compare_requires_avg_row(tmp_path, capsys):
    path = tmp_path / "noavg.csv"
    path.write_text(CSV_HEADER + "\n10,0,0,0,0,0\n")
    other = _write_short_trace(tmp_path, "coap", "ok.csv")
    rc = main(["compare", str(path), str(other)])
    assert rc == 1
    assert "no avg row" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["avg,0.1,0.0,0.1,0.1,nan", "avg,inf,0,0,0,0",
                                 "nan,0,0,0,0,0", "10,0,-inf,0,0,0"])
def test_parse_trace_csv_rejects_non_finite_numbers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        parse_trace_csv(path)


def test_cli_compare_rejects_a_non_finite_average_in_either_order(tmp_path, capsys):
    good = _write_short_trace(tmp_path, "mqtt", "mqtt.csv")
    run = _write_short_trace(tmp_path, "coap", "run.csv")
    lines = good.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    for specs in ([str(bad), str(good), f"c={run}"], [str(run), str(bad), str(good)]):
        assert main(["compare", *specs]) == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "nan.csv" in err


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",-5.0"],
    lambda lines: lines[:-1] + ["avg,0.1,0,0,0,0.0"],
    lambda lines: lines + ["avg,0.000000001,0,0,0,0.000000001"],
], ids=["negative-total", "total-not-the-sum", "second-avg-row"])
def test_cli_compare_rejects_an_edited_trace_in_either_order(tmp_path, capsys, edit):
    good = _write_short_trace(tmp_path, "coap", "coap.csv")
    sn = _write_short_trace(tmp_path, "mqtt-sn", "sn.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(sn.read_text().splitlines())) + "\n")
    for specs in ([str(bad), str(good)], [str(good), str(bad)]):
        assert main(["compare", *specs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "bad.csv" in captured.err


@pytest.mark.parametrize("spec", ["a,b={path}", "a b={path}", "{spaced}"])
def test_cli_compare_rejects_labels_with_a_comma_or_whitespace(tmp_path, capsys, spec):
    path = _write_short_trace(tmp_path, "mqtt", "mqtt.csv")
    spaced = tmp_path / "my run.csv"
    spaced.write_bytes(path.read_bytes())
    report = tmp_path / "report.csv"
    rc = main(["compare", spec.format(path=path, spaced=spaced), str(path),
               "--report", str(report)])
    assert rc == 1
    assert "LABEL=path" in capsys.readouterr().err
    assert not report.exists()

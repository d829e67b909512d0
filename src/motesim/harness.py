"""Scenario configuration, run orchestration, CSV emission, and comparison."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .energy import CurrentProfile, PowerSample
from .engine import RTIMER_HZ, Engine, seconds_to_ticks
from .medium import (
    CpuCostModel,
    DutyCycleConfig,
    LinkModel,
    Node,
    Overheads,
    RadioMedium,
    StreamConn,
)
from .powertrace import TraceRow, summarize, take_sample
from .protocols import actions as act
from .protocols import messages as wire
from .protocols.coap import (
    TOKEN_BYTES,
    CoapClientState,
    CoapServerState,
    coap_exchange,
    coap_server_handle,
)
from .protocols.http import HttpClientState, HttpServerState, http_server_handle, http_step
from .protocols.mqtt import BrokerState, MqttClientState, broker_handle, mqtt_client_step
from .protocols.mqttsn import GatewayState, SnClientState, gateway_handle, mqttsn_client_step

PROTOCOLS = ("mqtt", "mqtt-sn", "coap", "http")

# The five power columns of the trace CSV, the report and the plot data.
_COLUMNS = ("cpu_mw", "lpm_mw", "tx_mw", "rx_mw", "total_mw")
CSV_HEADER = ",".join(("time_s", *_COLUMNS))


class ScenarioError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    """Everything one run needs; defaults model a single telemetry client."""

    protocol: str = "mqtt"
    duration_s: float = 100.0
    interval_s: float = 10.0
    seed: int = 42
    clients: int = 1
    payload_bytes: int = 30
    publish_period_s: float = 5.0
    publish_offset_s: float = 1.0
    qos: int = 1
    topic: str = "temperature"
    http_path: str = "/temperature"
    host: str = "server"
    client_id: str = "z1-client"
    profile: CurrentProfile = CurrentProfile()
    range_m: float = 50.0
    tx_success: float = 1.0
    rx_success: float = 1.0
    client_pos: tuple[float, float] = (0.0, 0.0)
    server_pos: tuple[float, float] = (10.0, 0.0)
    duty: DutyCycleConfig = DutyCycleConfig()
    overheads: Overheads = Overheads()
    cpu_cost: CpuCostModel = CpuCostModel()
    report_node: str = ""

    def validate(self) -> "ScenarioConfig":
        for name in _NESTED_SECTIONS:
            record, kind = getattr(self, name), type(getattr(ScenarioConfig, name))
            if not isinstance(record, kind):
                raise ScenarioError(f"{name} must be {kind.__name__}(...), not {record!r}")
        schema = scenario_schema()
        for section, key, value in _scenario_items(self):
            if not _has_type_of(value, schema[section][key]):
                raise ScenarioError(f"{section}.{key}: {value!r} lacks the type of its "
                                    f"default, {schema[section][key]!r}")
            if isinstance(value, str) and not value.isascii():
                raise ScenarioError(f"{section}.{key} must be ASCII, not {value!r}")
            for number in value if isinstance(value, tuple) else (value,):
                if isinstance(number, float) and not math.isfinite(number):
                    raise ScenarioError(f"{section}.{key} must be finite, not {value}")
            if section in ("overheads", "cpu", "currents") and value < 0:
                raise ScenarioError(f"{section}.{key} must be >= 0, not {value}")
        if self.overheads.link_bytes < 1:  # so that every frame has airtime
            raise ScenarioError(f"overheads.link_bytes must be >= 1, not "
                                f"{self.overheads.link_bytes}")
        if self.profile.voltage_v <= 0:
            raise ScenarioError(f"currents.voltage_v must be > 0, not {self.profile.voltage_v}")
        if self.profile.lpm_ma >= self.profile.cpu_active_ma:
            raise ScenarioError(f"currents.lpm_ma ({self.profile.lpm_ma}) must be below "
                                f"currents.cpu_active_ma ({self.profile.cpu_active_ma})")
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(
                f"unknown protocol {self.protocol!r} (choose from {', '.join(PROTOCOLS)})"
            )
        if self.publish_period_s <= 0:
            raise ScenarioError(f"scenario.publish_period_s must be > 0, not "
                                f"{self.publish_period_s}")
        if self.interval_s <= 0 or self.duration_s <= 0:
            raise ScenarioError("duration_s and interval_s must be positive")
        if self.interval_s > self.duration_s:
            raise ScenarioError("interval_s must not exceed duration_s")
        if not float(self.interval_s * RTIMER_HZ).is_integer():
            raise ScenarioError(
                f"interval_s ({self.interval_s:g}) must be a whole number of "
                f"1/{RTIMER_HZ} s ticks"
            )
        intervals = self.duration_s / self.interval_s
        if abs(intervals - round(intervals)) > 1e-9:
            raise ScenarioError(
                f"duration_s ({self.duration_s:g}) must be a whole multiple of "
                f"interval_s ({self.interval_s:g})"
            )
        if self.clients < 1:
            raise ScenarioError("clients must be >= 1")
        if self.report_node and self.report_node not in (*self.client_ids(), "server"):
            raise ScenarioError(f"unknown report node {self.report_node!r}")
        if self.qos not in (0, 1):
            raise ScenarioError("qos must be 0 or 1")
        if not 0.0 <= self.tx_success <= 1.0 or not 0.0 <= self.rx_success <= 1.0:
            raise ScenarioError("success probabilities must lie in [0, 1]")
        if self.payload_bytes < 0:
            raise ScenarioError("payload_bytes must be >= 0")
        if self.duty.enabled:
            rate = self.duty.check_rate_hz
            if rate <= 0 or RTIMER_HZ % rate != 0:
                raise ScenarioError(
                    f"duty.check_rate_hz ({rate}) must be positive and divide {RTIMER_HZ}"
                )
            width, period = self.duty.check_duration_ticks, RTIMER_HZ // rate
            if not 0 <= width <= period:
                raise ScenarioError(
                    f"duty.check_duration_ticks ({width}) must lie in [0, {period}], the check "
                    "period; set duty.enabled = false for a radio that never sleeps")
        try:
            largest = _largest_frame(self)
        except ValueError as err:
            raise ScenarioError(f"{self.protocol}: {err}") from None
        if largest > self.overheads.mtu_bytes:
            raise ScenarioError(
                f"{self.protocol}: a frame of {largest} B exceeds overheads.mtu_bytes "
                f"({self.overheads.mtu_bytes} B)"
            )
        return self

    def client_ids(self) -> list[str]:
        if self.clients == 1:
            return ["client"]
        return [f"client-{i + 1}" for i in range(self.clients)]

    def client_names(self) -> list[str]:
        """The client id each client sends on the wire, in client_ids() order."""
        if self.clients == 1:
            return [self.client_id]
        return [f"{self.client_id}-{i + 1}" for i in range(self.clients)]


def _largest_frame(config: ScenarioConfig) -> int:
    """Bytes on air of the largest frame that a client's exchange cannot split.

    The messages a client sends are encoded from the config, which raises
    ValueError for one that its codec cannot carry or, for HTTP, that does not
    decode back to itself. A stream cuts data into
    segments that fit the MTU, so its smallest data segment, one byte, must
    fit. Datagrams are not fragmented: the largest message either side sends
    must fit whole.
    """
    over = config.overheads
    payload = bytes(config.payload_bytes)
    client_id = max(config.client_names(), key=len)
    if config.protocol == "mqtt":
        wire.mqtt_encode(wire.MqttMsg(wire.MQTT_CONNECT, client_id=client_id))
        wire.mqtt_encode(wire.MqttMsg(wire.MQTT_PUBLISH, topic=config.topic,
                                      qos=config.qos, payload=payload))
    elif config.protocol == "http":
        request = wire.HttpRequest("GET", config.http_path, config.host)
        if wire.http_decode_request(wire.http_encode(request)) != request:
            raise ValueError("http_path and host must keep the request line and "
                             "Host header intact")
    if config.protocol in ("mqtt", "http"):
        return over.link_bytes + over.stream_bytes + 1
    if config.protocol == "mqtt-sn":
        encoded = [wire.sn_encode(wire.MqttSnMsg(wire.SN_CONNECT, client_id=client_id)),
                   wire.sn_encode(wire.MqttSnMsg(wire.SN_REGISTER, topic=config.topic)),
                   wire.sn_encode(wire.MqttSnMsg(wire.SN_PUBLISH, qos=config.qos,
                                                 payload=payload))]
    else:
        token = bytes(TOKEN_BYTES)
        encoded = [wire.coap_encode(wire.CoapMsg(wire.COAP_CON, "GET", 0, token, config.topic)),
                   wire.coap_encode(wire.CoapMsg(wire.COAP_ACK, "2.05", 0, token,
                                                 payload=payload))]
    return over.link_bytes + over.datagram_bytes + max(map(len, encoded))


# Scenario-file sections: the flat ScenarioConfig fields split into [scenario]
# and [radio]; each nested config record gets a section of its own.
_RADIO_KEYS = ("range_m", "tx_success", "rx_success", "client_pos", "server_pos")
_NESTED_SECTIONS = {"profile": "currents", "duty": "duty", "overheads": "overheads",
                    "cpu_cost": "cpu"}


def _scenario_items(config: ScenarioConfig):
    """(section, key, value) for every scenario-file key, in field order."""
    for name in config.__match_args__:  # the fields of a dataclass or a NamedTuple
        value = getattr(config, name)
        section = _NESTED_SECTIONS.get(name)
        if section is None:
            yield ("radio" if name in _RADIO_KEYS else "scenario"), name, value
        else:
            for sub in value.__match_args__:
                yield section, sub, getattr(value, sub)


def _has_type_of(value, default) -> bool:
    """Whether value has its key's type, that of default: an int also serves
    for a float, but a bool only for a bool, and a position is a pair of numbers."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(map(_has_type_of, value, default)))
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def scenario_schema() -> dict[str, dict[str, object]]:
    """Section -> key -> default of the scenario file, read off the config records."""
    schema: dict[str, dict[str, object]] = {}
    for section, key, default in _scenario_items(ScenarioConfig()):
        schema.setdefault(section, {})[key] = default
    return schema


def _cast_pos(raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(raw)
    return float(parts[0]), float(parts[1])


def _cast_for(default) -> Callable[[str], object]:
    """The parse function of a key, chosen by the type of its default."""
    if isinstance(default, bool):  # before int: bool is a subclass of int
        return lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    if isinstance(default, tuple):
        return _cast_pos
    return type(default)


def load_scenario(path) -> ScenarioConfig:
    """Parse a key-value scenario file; unspecified keys take the defaults.

    An unknown section or key is an error, so a typo cannot silently leave
    a default in place.
    """
    file_path = Path(path)
    if not file_path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)  # "%" is a plain character
    try:
        parser.read(file_path)
    except configparser.Error as err:
        raise ScenarioError(f"{path}: {err}") from None

    schema = scenario_schema()
    values: dict[str, dict[str, object]] = {section: {} for section in schema}
    if parser.defaults():  # its keys would leak into every other section
        raise ScenarioError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in schema:
            raise ScenarioError(f"{path}: unknown section [{section}] "
                                f"(sections: {', '.join(schema)})")
        defaults = schema[section]
        for key, raw in parser.items(section):
            if key not in defaults:
                raise ScenarioError(f"{path}: unknown key {section}.{key}")
            try:
                values[section][key] = _cast_for(defaults[key])(raw)
            except (KeyError, TypeError, ValueError):
                raise ScenarioError(f"{section}.{key}: cannot parse {raw!r}") from None

    base = ScenarioConfig()  # the nested defaults are their types' defaults
    nested = {name: type(getattr(base, name))(**values[section])
              for name, section in _NESTED_SECTIONS.items()}
    return ScenarioConfig(**values["scenario"], **values["radio"], **nested).validate()


# ---------------------------------------------------------------------------
# Runtime: binds a state machine to a node and executes its actions

class Trace:
    def __init__(self, protocol: str, node_id: str, rows: list[TraceRow], avg: PowerSample):
        self.protocol = protocol
        self.node_id = node_id
        self.rows = rows
        self.avg = avg


class SimRun:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.nodes: dict[str, Node] = {}
        self.runtimes: dict[str, ProtocolRuntime] = {}
        self.traces: dict[str, Trace] = {}
        self.events: list[tuple[float, str, str, str]] = []

    def report_trace(self) -> Trace:
        """The trace of the reported node: report_node, or else the first client."""
        return self.traces[self.config.report_node or self.config.client_ids()[0]]


class ProtocolRuntime:
    """Executes a state machine's actions against a node's transports.

    `encoded` (message -> bytes) and `decoded` ((decode kind, bytes) -> what
    the decoder returned) are the run's codec memos. A message compares by
    type and fields, so an equal key means the same bytes. Only whole
    messages are stored: neither a stream buffer that holds part of one nor
    a ParseError is, so every bad frame is noted."""

    def __init__(self, node: Node, step: Callable, state, transport: str,
                 decode_kind: str, notes: list[tuple[float, str, str, str]],
                 encoded: dict, decoded: dict):
        self.node = node
        self.engine = node.engine
        self.step = step
        self.state = state
        self.transport = transport
        self.decode_kind = decode_kind
        self.notes = notes  # the run's events list; the SimRun itself would be a cycle
        self.encoded = encoded
        self.decoded = decoded
        self.timers: dict[str, int] = {}
        self.conn_by_peer: dict[str, StreamConn] = {}
        self.buffers: dict[int, bytearray] = {}
        if transport == "stream":
            node.streams.on_established = self._on_established
            node.streams.on_data = self._on_stream_data
            node.streams.on_closed = self._on_closed
            node.streams.on_failed = self._on_failed
        else:
            node.datagrams.on_datagram = self._on_datagram

    def start(self) -> None:
        self.feed(act.Started(self._now_s()))

    def feed(self, event) -> None:
        self._execute(self.step(self.state, event))

    # -- action execution ---------------------------------------------------

    def _now_s(self) -> float:
        return self.engine.now / RTIMER_HZ

    def _execute(self, actions) -> None:
        for action in actions:
            if isinstance(action, act.SendMsg):
                self._send(action.msg, action.dst)
            elif isinstance(action, act.StartTimer):
                self._start_timer(action)
            elif isinstance(action, act.StopTimer):
                event_id = self.timers.pop(action.key, None)
                if event_id is not None:
                    self.engine.cancel(event_id)
            elif isinstance(action, act.OpenStream):
                conn = self.node.streams.connect(action.dst)
                self.conn_by_peer[action.dst] = conn
            elif isinstance(action, act.CloseStream):
                self.node.streams.close(self.conn_by_peer[action.dst])
            elif isinstance(action, act.Notify):
                self._note(action.kind, action.detail)

    def _note(self, kind: str, detail: str) -> None:
        self.notes.append((self._now_s(), self.node.node_id, kind, detail))

    def _send(self, msg, dst: str) -> None:
        data = self.encoded.get(msg)
        if data is None:
            data = self.encoded[msg] = wire.encode(msg)
        if self.transport == "stream":
            conn = self.conn_by_peer.get(dst)
            if conn is None or conn.state != "ESTABLISHED":
                self._note("send-dropped", f"no established stream to {dst}")
                return
            self.node.streams.send(conn, data)
        else:
            self.node.datagrams.send(dst, data)

    def _start_timer(self, action: act.StartTimer) -> None:
        old = self.timers.pop(action.key, None)
        if old is not None:
            self.engine.cancel(old)
        if action.at_s is not None:
            fire_at = seconds_to_ticks(action.at_s)
        else:
            fire_at = self.engine.now + seconds_to_ticks(action.delay_s)
        self.timers[action.key] = self.engine.call_at(fire_at, self._timer_fired, action.key)

    def _timer_fired(self, key: str) -> None:
        self.timers.pop(key, None)
        self.feed(act.TimerFired(key, self._now_s()))

    # -- transport callbacks --------------------------------------------------

    def _on_established(self, conn: StreamConn) -> None:
        self.conn_by_peer[conn.peer] = conn
        self.buffers[conn.conn_id] = bytearray()  # the transport hands up no data before this
        self.feed(act.StreamUp(conn.peer, self._now_s()))

    def _on_stream_data(self, conn: StreamConn, chunk: bytes) -> None:
        buffer = self.buffers[conn.conn_id]
        buffer += chunk
        while buffer:
            data = bytes(buffer)
            result = self.decoded.get((self.decode_kind, data))
            if result is None:
                try:
                    result = wire.decode_prefix(data, self.decode_kind)
                except wire.ParseError as err:
                    self._note("parse-error", str(err))
                    buffer.clear()
                    return
                if result is None:  # the message is incomplete
                    return
                self.decoded[self.decode_kind, data] = result
            msg, consumed = result
            del buffer[:consumed]
            self.feed(act.MsgIn(msg, conn.peer, self._now_s()))

    def _on_closed(self, conn: StreamConn) -> None:
        self._drop_conn(conn)
        self.feed(act.StreamDown(conn.peer, "closed", self._now_s()))

    def _on_failed(self, conn: StreamConn, reason: str) -> None:
        self._drop_conn(conn)
        self._note("stream-failed", f"{conn.peer}: {reason}")
        self.feed(act.StreamDown(conn.peer, "failed", self._now_s()))

    def _drop_conn(self, conn: StreamConn) -> None:
        self.buffers.pop(conn.conn_id, None)
        if self.conn_by_peer.get(conn.peer) is conn:
            del self.conn_by_peer[conn.peer]

    def _on_datagram(self, src: str, data: bytes) -> None:
        key = (self.decode_kind, data)
        msg = self.decoded.get(key)
        if msg is None:
            try:
                msg = self.decoded[key] = wire.decode(data, self.decode_kind)
            except wire.ParseError as err:
                self._note("parse-error", str(err))
                return
        self.feed(act.MsgIn(msg, src, self._now_s()))


def _server_step(handler: Callable) -> Callable:
    def step(state, event):
        if isinstance(event, act.MsgIn):
            return handler(state, event.msg, event.src)
        return []

    return step


def _protocol_table(config: ScenarioConfig) -> dict[str, tuple]:
    """protocol -> (transport, client step, client state type, client decode kind,
    server handler, server state, server decode kind).

    Built per run, so that the step names are looked up when a run starts.
    """
    resource = bytes(config.payload_bytes)
    return {
        "mqtt": ("stream", mqtt_client_step, MqttClientState, "mqtt",
                 broker_handle, BrokerState(), "mqtt"),
        "mqtt-sn": ("datagram", mqttsn_client_step, SnClientState, "mqtt-sn",
                    gateway_handle, GatewayState(), "mqtt-sn"),
        "coap": ("datagram", coap_exchange, CoapClientState, "coap",
                 coap_server_handle, CoapServerState(resource), "coap"),
        "http": ("stream", http_step, HttpClientState, "http-response",
                 http_server_handle, HttpServerState(resource), "http-request"),
    }


def simulate(config: ScenarioConfig) -> SimRun:
    """Build the topology, run the full scenario, and collect per-node traces.

    The returned run answers what a caller reads after it: `traces`,
    `events`, each node's `ledger`, `sent_frames` and `settle()`, and each
    runtime's `state` and `timers`; a runtime still notes what it cannot
    parse. Its pending events and each node's transports are dropped, so its
    nodes can no longer send, and the run holds no reference cycle: it is
    freed as soon as the caller drops it, without waiting for the garbage
    collector.

    A run encodes each distinct message, and decodes each distinct whole
    message, once: its runtimes share one encode map and one decode map,
    which live and die with the run. Nothing is cached across runs.
    """
    config.validate()
    engine = Engine(config.seed)
    client_ids = config.client_ids()
    positions = {}
    for index, client_id in enumerate(client_ids):
        positions[client_id] = (config.client_pos[0], config.client_pos[1] + index)
    positions["server"] = config.server_pos
    link = LinkModel(config.range_m, config.tx_success, config.rx_success, positions)
    medium = RadioMedium(engine, link, config.overheads)
    sim = SimRun(config)

    (transport, client_step, client_state, client_kind,
     handler, server_state, server_kind) = _protocol_table(config)[config.protocol]
    encoded: dict = {}
    decoded: dict = {}
    for node_id, client_name in zip(client_ids, config.client_names()):
        node = sim.nodes[node_id] = Node(node_id, engine, medium, config.duty,
                                         config.cpu_cost)
        client = act.ClientConfig(
            client_id=client_name,
            topic=config.topic, qos=config.qos, payload_bytes=config.payload_bytes,
            offset_s=config.publish_offset_s, period_s=config.publish_period_s,
            host=config.host, path=config.http_path,
        )
        sim.runtimes[node_id] = ProtocolRuntime(node, client_step, client_state(client),
                                                transport, client_kind, sim.events,
                                                encoded, decoded)
    server = sim.nodes["server"] = Node("server", engine, medium, config.duty,
                                        config.cpu_cost)
    sim.runtimes["server"] = ProtocolRuntime(server, _server_step(handler), server_state,
                                             transport, server_kind, sim.events,
                                             encoded, decoded)

    interval_ticks = seconds_to_ticks(config.interval_s)
    intervals = round(config.duration_s / config.interval_s)
    rows: dict[str, list[TraceRow]] = {node_id: [] for node_id in sim.nodes}
    previous = {}

    def sample() -> None:
        now = engine.now
        for node_id, node in sim.nodes.items():
            node.settle(now)
            snap = node.ledger.snapshot()
            rows[node_id].append(
                take_sample(previous[node_id], snap, config.profile, config.interval_s)
            )
            previous[node_id] = snap

    for k in range(1, intervals + 1):
        engine.call_at(k * interval_ticks, sample)

    for node_id, node in sim.nodes.items():
        previous[node_id] = node.ledger.snapshot()

    sim.runtimes["server"].start()
    for client_id in client_ids:
        sim.runtimes[client_id].start()

    engine.run(seconds_to_ticks(config.duration_s))

    for node_id in sim.nodes:
        node_rows = rows[node_id]
        avg = summarize([row.sample for row in node_rows])
        sim.traces[node_id] = Trace(config.protocol, node_id, node_rows, avg)
    # Drop what only a running simulation needs, so that the returned run
    # holds no reference cycle and is freed as soon as it is dropped.
    engine.drop_pending()
    medium.detach()
    return sim


def run_scenario(config: ScenarioConfig) -> Trace:
    """Run one scenario and return the trace of the reported node (the client)."""
    return simulate(config).report_trace()


# ---------------------------------------------------------------------------
# CSV trace I/O

def _columns(sample: PowerSample, sep: str) -> str:
    """The five power columns of one sample, in `_COLUMNS` order, 9 decimals each."""
    return (
        f"{sample.cpu_mw:.9f}{sep}{sample.lpm_mw:.9f}{sep}{sample.tx_mw:.9f}{sep}"
        f"{sample.rx_mw:.9f}{sep}{sample.total_mw:.9f}"
    )


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_csv(trace: Trace, path) -> None:
    """Emit one row per interval plus a final row labeled `avg`."""
    if not trace.rows:
        raise ValueError("refusing to write an empty trace")
    lines = [CSV_HEADER]
    for row in trace.rows:
        end_s = row.interval_end_s  # exact: integers bare, others by round-trip repr
        label = f"{end_s:.0f}" if end_s.is_integer() else repr(end_s)
        lines.append(f"{label},{_columns(row.sample, ',')}")
    lines.append(f"avg,{_columns(trace.avg, ',')}")
    _write_lines(path, lines)


def parse_trace_csv(path) -> tuple[list[PowerSample], Optional[PowerSample]]:
    """Read a trace CSV back into samples; returns (rows, avg_or_None).

    Rejects, naming the file and the row, what `write_csv` never writes: a row
    without six fields, a field that is not a number, a non-finite or negative
    number, a total that is not the sum of its four columns (give or take the
    rounding of five 9-decimal fields), and any row after the `avg` row.
    """
    rows: list[PowerSample] = []
    average: Optional[PowerSample] = None
    with open(path, "r", newline="") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized trace header in {path}")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"{path}: trace row {line!r}: {len(fields)} fields, not 6")
        try:
            values = [0.0 if fields[0] == "avg" else float(fields[0]), *map(float, fields[1:])]
        except ValueError as err:
            raise ValueError(f"{path}: trace row {line!r}: {err}") from None
        _, cpu, lpm, tx, rx, total = values
        if average is not None:
            problem = "comes after the avg row"
        elif not all(math.isfinite(v) for v in values):
            problem = "non-finite value"
        elif min(values) < 0:
            problem = "negative value"
        elif not math.isclose(cpu + lpm + tx + rx, total, rel_tol=1e-12, abs_tol=3e-9):
            problem = "total is not the sum of its columns"
        else:
            problem = ""
        if problem:
            raise ValueError(f"{path}: trace row {line!r}: {problem}")
        if fields[0] == "avg":
            average = PowerSample(*values)
        else:
            rows.append(PowerSample(*values))
    return rows, average


# ---------------------------------------------------------------------------
# Cross-protocol comparison

class ComparisonReport(NamedTuple):
    averages: dict[str, PowerSample]
    ranking: list[str]
    vs_best: dict[str, float]


def compare(averages: dict[str, PowerSample]) -> ComparisonReport:
    """Rank protocols by average total power and give each total relative to the best.

    `vs_best[name]` is (total - best) / best; with a best total of 0 it is inf
    for a positive total and 0.0 otherwise. Ties in the ranking break
    alphabetically.
    """
    if len(averages) < 2:
        raise ValueError("compare needs at least two protocols")
    ranking = sorted(averages, key=lambda name: (averages[name].total_mw, name))
    best = averages[ranking[0]].total_mw
    vs_best = {}
    for name, sample in averages.items():
        if best == 0.0:
            vs_best[name] = math.inf if sample.total_mw > 0 else 0.0
        else:
            vs_best[name] = (sample.total_mw - best) / best
    return ComparisonReport(averages, ranking, vs_best)


def write_report_csv(report: ComparisonReport, path) -> None:
    """Ranked averages table; `total_vs_best_pct` is each total relative to the best."""
    lines = [",".join(("protocol", "rank", *_COLUMNS, "total_vs_best_pct"))]
    for rank, name in enumerate(report.ranking, start=1):
        lines.append(f"{name},{rank},{_columns(report.averages[name], ',')},"
                     f"{report.vs_best[name] * 100.0:.1f}")
    _write_lines(path, lines)


def emit_plot_data(report: ComparisonReport, path) -> None:
    """Grouped-bar data: one whitespace-separated line per protocol."""
    lines = [" ".join(("# protocol", *_COLUMNS))]
    lines += [f"{name} {_columns(report.averages[name], ' ')}" for name in report.ranking]
    _write_lines(path, lines)

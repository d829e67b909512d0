"""Radio medium: airtime, delivery rules, duty cycling, and both transports."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motesim import harness
from motesim.energy import RadioState
from motesim.engine import RTIMER_HZ, Engine, seconds_to_ticks
from motesim.harness import PROTOCOLS, ScenarioConfig, simulate
from motesim.medium import (
    CpuCostModel,
    DutyCycleConfig,
    FrameTooLarge,
    LinkModel,
    Node,
    RadioFrame,
    RadioMedium,
    airtime_ticks,
)

from naive_medium import NaiveMedium, NaiveNode

NO_DUTY = DutyCycleConfig(enabled=False)
# The node and medium classes of the fast medium and of its oracle.
FAST, NAIVE = (Node, RadioMedium), (NaiveNode, NaiveMedium)


class ScriptedLink(LinkModel):
    """Link whose success draws follow fixed scripts (True when exhausted)."""

    def __init__(self, positions, tx_script=(), rx_script=()):
        super().__init__(50.0, 0.5, 0.5, positions)
        self.tx_script = list(tx_script)
        self.rx_script = list(rx_script)

    def tx_passes(self, rng):
        return self.tx_script.pop(0) if self.tx_script else True

    def rx_passes(self, rng):
        return self.rx_script.pop(0) if self.rx_script else True


def make_world(duty=NO_DUTY, positions=None, link=None, seed=0):
    engine = Engine(seed)
    positions = positions if positions is not None else {"a": (0.0, 0.0), "b": (10.0, 0.0)}
    link = link or LinkModel(50.0, 1.0, 1.0, positions)
    medium = RadioMedium(engine, link)
    nodes = {nid: Node(nid, engine, medium, duty) for nid in positions}
    return engine, medium, nodes


# ---------------------------------------------------------------------------
# Airtime

def test_airtime_examples():
    # 250 kbps, tick = 1/32768 s
    assert airtime_ticks(125) == 132  # 1000 bits = 4 ms = 131.072 ticks
    assert airtime_ticks(1) == 2
    assert airtime_ticks(0) == 0


def test_airtime_rejects_negative():
    with pytest.raises(ValueError):
        airtime_ticks(-1)


def test_airtime_matches_exact_ceiling():
    for n in range(0, 300):
        exact = Fraction(n * 8, 250_000) * 32768
        assert airtime_ticks(n) == -(-exact.numerator // exact.denominator)


def test_airtime_monotone():
    previous = 0
    for n in range(1, 200):
        ticks = airtime_ticks(n)
        assert ticks >= previous
        previous = ticks


# ---------------------------------------------------------------------------
# Cost models

def test_frame_cpu_cost_counts_pdu_bytes_only():
    frame = RadioFrame("a", "b", 50, None)
    assert CpuCostModel().frame_cost(frame, 9) == 30 + 2 * 41
    assert CpuCostModel(10, 1).frame_cost(frame, 9) == 51


def test_link_model_geometry():
    engine, medium, nodes = make_world(positions={
        "a": (0.0, 0.0), "edge": (30.0, 40.0), "beyond": (-50.01, 0.0)})
    heard = []
    for node_id in ("edge", "beyond"):
        nodes[node_id].datagrams.on_datagram = (
            lambda src, data, node_id=node_id: heard.append(node_id))
        nodes["a"].datagrams.send(node_id, b"x")
    engine.run(seconds_to_ticks(1))
    assert heard == ["edge"]  # exactly range_m away hears it, 0.01 m more does not


def test_trivial_probabilities_consume_no_randomness():
    engine, medium, nodes = make_world()
    state_before = engine.rng.getstate()
    nodes["a"].datagrams.send("b", b"x")
    engine.run(seconds_to_ticks(1))
    assert engine.rng.getstate() == state_before


# ---------------------------------------------------------------------------
# Delivery rules

def test_datagram_delivered_in_range():
    engine, medium, nodes = make_world()
    got = []
    nodes["b"].datagrams.on_datagram = lambda src, data: got.append((src, data))
    nodes["a"].datagrams.send("b", b"hello")
    engine.run(seconds_to_ticks(1))
    assert got == [("a", b"hello")]


def test_datagram_frame_size_and_no_retransmission():
    engine, medium, nodes = make_world()
    nodes["a"].datagrams.send("b", b"12345")
    engine.run(seconds_to_ticks(5))
    frames = nodes["a"].sent_frames
    assert len(frames) == 1
    assert frames[0].length_bytes == 5 + 21 + 9  # payload + datagram + link


def test_out_of_range_never_delivers_but_tx_still_paid():
    engine, medium, nodes = make_world(
        positions={"a": (0.0, 0.0), "b": (60.0, 0.0)})
    got = []
    nodes["b"].datagrams.on_datagram = lambda src, data: got.append(data)
    nodes["a"].datagrams.send("b", b"x")
    engine.run(seconds_to_ticks(1))
    nodes["a"].settle(engine.now)
    nodes["b"].settle(engine.now)
    assert got == []
    assert nodes["a"].ledger.tx_ticks == airtime_ticks(31)
    assert nodes["b"].ledger.rx_ticks == engine.now  # idle listening only


def test_lost_frame_burns_energy_on_both_sides():
    # tx draw fails: the listener still spends RX for the airtime span
    link = ScriptedLink({"a": (0.0, 0.0), "b": (10.0, 0.0)}, tx_script=[False])
    engine, medium, nodes = make_world(duty=DutyCycleConfig(True, 8, 32), link=link)
    got = []
    nodes["b"].datagrams.on_datagram = lambda src, data: got.append(data)
    nodes["a"].datagrams.send("b", b"x")
    engine.run(seconds_to_ticks(0.25))
    nodes["a"].settle(engine.now)
    nodes["b"].settle(engine.now)
    air = airtime_ticks(31)
    assert got == []
    assert nodes["a"].ledger.tx_ticks == air
    assert nodes["b"].ledger.rx_ticks >= air


def test_nodes_join_before_the_first_frame_and_not_after():
    positions = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (5.0, 5.0), "d": (5.0, -5.0)}
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, positions))
    nodes = {node_id: Node(node_id, engine, medium, NO_DUTY) for node_id in "ab"}
    engine.call_at(1000, lambda: None)
    engine.run(seconds_to_ticks(1))  # timers only: c still joins
    nodes["c"] = Node("c", engine, medium, NO_DUTY)
    got = []
    nodes["c"].datagrams.on_datagram = lambda src, data: got.append(data)
    nodes["a"].datagrams.send("c", b"first")
    engine.run(seconds_to_ticks(2))
    assert got == [b"first"]
    with pytest.raises(ValueError, match="after the first frame"):
        Node("d", engine, medium, NO_DUTY)
    assert list(medium.nodes) == ["a", "b", "c"]


def test_sender_defers_tx_while_a_frame_is_inbound():
    # carrier sense: b's reply waits for a's frame to finish, so in-range
    # transmissions serialize instead of colliding
    engine, medium, nodes = make_world()
    got = []
    nodes["a"].datagrams.on_datagram = lambda src, data: got.append(src)
    nodes["b"].datagrams.on_datagram = (
        lambda src, data: nodes["b"].datagrams.send(src, b"reply"))
    nodes["a"].datagrams.send("b", bytes(60))
    engine.call_at(200, nodes["b"].datagrams.send, "a", b"eager")
    engine.run(seconds_to_ticks(1))
    assert sorted(got) == ["b", "b"]  # both of b's frames arrive


def test_mtu_enforced():
    engine, medium, nodes = make_world()
    with pytest.raises(FrameTooLarge):
        nodes["a"].datagrams.send("b", bytes(98))  # 128 B frame
    nodes["a"].datagrams.send("b", bytes(97))  # exactly 127 B passes


# ---------------------------------------------------------------------------
# Duty cycling

def test_duty_cycle_idle_budget_example():
    # 8 checks/s of 8 ticks for 10 s: 640 RX ticks
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    node = Node("a", engine, medium, DutyCycleConfig(True, 8, 8))
    engine.run(seconds_to_ticks(10))
    node.settle(engine.now)
    assert node.ledger.rx_ticks == 640
    assert node.ledger.tx_ticks == 0


def test_duty_cycle_idle_budget_default_width():
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    node = Node("a", engine, medium, DutyCycleConfig())
    engine.run(seconds_to_ticks(10))
    node.settle(engine.now)
    assert node.ledger.rx_ticks == 8 * 32 * 10


def test_duty_node_created_mid_run_keeps_its_own_check_phase():
    # a node created at tick 1000 checks at 1000 + k * 4096, not on the
    # 4096-tick grid of the node created at tick 0
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0,
                                           {"a": (0.0, 0.0), "b": (100.0, 0.0)}))
    Node("a", engine, medium, DutyCycleConfig(True, 8, 8))
    engine.run(1000)
    late = Node("b", engine, medium, DutyCycleConfig(True, 8, 8))
    for tick, rx_ticks in ((1000, 0), (1004, 4), (5095, 8), (5100, 12),
                           (1000 + 10 * 4096 + 3, 10 * 8 + 3)):
        engine.run(tick)
        late.settle(engine.now)
        assert late.ledger.rx_ticks == rx_ticks


def test_duty_disabled_means_always_listening():
    engine, medium, nodes = make_world()
    engine.run(seconds_to_ticks(10))
    nodes["a"].settle(engine.now)
    assert nodes["a"].ledger.rx_ticks == seconds_to_ticks(10)


def test_duty_check_rate_must_divide_tick_rate():
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    with pytest.raises(ValueError):
        Node("a", engine, medium, DutyCycleConfig(True, 7, 8))


def test_duty_check_window_must_fit_its_period():
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0), "b": (1.0, 0.0)}))
    Node("a", engine, medium, DutyCycleConfig(True, 8, 4096))  # D = P
    with pytest.raises(ValueError, match="check_duration_ticks"):
        Node("b", engine, medium, DutyCycleConfig(True, 8, 4097))


@pytest.mark.parametrize("duty", [DutyCycleConfig(True, 3, 32), DutyCycleConfig(True, 8, 4097)])
def test_a_node_rejected_for_its_duty_config_is_not_registered(duty):
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    with pytest.raises(ValueError):
        Node("a", engine, medium, duty)
    assert medium.nodes == {}


def test_duty_cycled_receiver_wakes_for_frame():
    engine, medium, nodes = make_world(duty=DutyCycleConfig(True, 8, 32))
    got = []
    nodes["b"].datagrams.on_datagram = lambda src, data: got.append(data)
    engine.call_at(seconds_to_ticks(1), nodes["a"].datagrams.send, "b", b"ping")
    engine.run(seconds_to_ticks(2))
    nodes["b"].settle(engine.now)
    assert got == [b"ping"]
    # the reception hold costs at least the frame's airtime on top of checks
    assert nodes["b"].ledger.rx_ticks >= airtime_ticks(34)


def test_every_duty_cycled_listener_pays_exactly_the_airtime():
    # one frame heard by three sleeping listeners between two idle checks:
    # each accrues the airtime in RX and is back OFF once the frame ends
    positions = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0), "d": (20.0, 0.0)}
    engine, medium, nodes = make_world(duty=DutyCycleConfig(True, 8, 32),
                                       positions=positions)
    listeners = [nodes[nid] for nid in ("b", "c", "d")]
    engine.run(1000)  # past the first check, before the next at 4096
    before = []
    for node in listeners:
        node.settle(engine.now)
        before.append(node.ledger.rx_ticks)
    nodes["a"].datagrams.send("b", bytes(20))
    engine.run(2000)
    frame = nodes["a"].sent_frames[0]
    for node, rx_before in zip(listeners, before):
        node.settle(engine.now)
        assert node.ledger.rx_ticks - rx_before == airtime_ticks(frame.length_bytes)
        assert node.ledger.radio_state is RadioState.OFF


def test_tick_conservation_during_traffic():
    engine, medium, nodes = make_world(duty=DutyCycleConfig(True, 8, 32))
    for k in range(5):
        engine.call_at(seconds_to_ticks(k + 1), nodes["a"].datagrams.send, "b", bytes(20))
    engine.run(seconds_to_ticks(10))
    for node in nodes.values():
        node.settle(engine.now)
        assert node.ledger.cpu_ticks + node.ledger.lpm_ticks == engine.now
        assert node.ledger.tx_ticks + node.ledger.rx_ticks <= engine.now


def test_tx_ticks_equal_sum_of_sent_airtimes():
    engine, medium, nodes = make_world(duty=DutyCycleConfig(True, 8, 32))
    conn = nodes["a"].streams.connect("b")
    engine.call_at(seconds_to_ticks(1), nodes["a"].streams.send, conn, bytes(40))
    engine.call_at(seconds_to_ticks(2), nodes["a"].streams.send, conn, bytes(90))
    engine.run(seconds_to_ticks(5))
    for node in nodes.values():
        node.settle(engine.now)
        expected = sum(airtime_ticks(f.length_bytes) for f in node.sent_frames)
        assert node.ledger.tx_ticks == expected


# ---------------------------------------------------------------------------
# CPU and always-on radio books: closed form against the naive medium

def books(ledger):
    return ledger.cpu_ticks, ledger.lpm_ticks, ledger.tx_ticks, ledger.rx_ticks


def test_node_built_mid_run_books_nothing_before_it_exists():
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    engine.run(1000)
    node = Node("a", engine, medium, NO_DUTY)
    engine.run(3000)
    assert books(node.settle(engine.now)) == (0, 2000, 0, 2000)


# Steps of a CPU program: (gap, ticks). The gap is the ticks to wait first, or
# None to wait for the end of the busy window (at once if idle); ticks is the
# charge, or None to settle.
CPU_STEPS = st.tuples(st.one_of(st.none(), st.integers(0, 80)),
                      st.one_of(st.none(), st.integers(0, 60)))


def play_cpu_program(impl, program, created):
    """Run a CPU program on an always-on node of impl; return its books at every settle."""
    node_class, medium_class = impl
    engine = Engine()
    medium = medium_class(engine, LinkModel(50.0, 1.0, 1.0, {"a": (0.0, 0.0)}))
    engine.run(created)
    node = node_class("a", engine, medium, NO_DUTY)
    settled = []
    for gap, ticks in program:
        engine.run(max(engine.now, node._cpu_busy_until) if gap is None
                   else engine.now + gap)
        if ticks is None:
            settled.append(books(node.settle(engine.now)))
        else:
            node.charge_cpu(ticks)
    engine.run(engine.now + 100)
    return settled + [books(node.settle(engine.now))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(CPU_STEPS, max_size=30), st.integers(0, 3000))
# zero-tick charge, settles mid-window and twice at one tick, charges at a window's end
@example([(0, 0), (0, None), (None, 10), (5, None), (None, 7), (None, None), (None, None)], 0)
def test_cpu_books_match_the_busy_window_rule(program, created):
    assert play_cpu_program(FAST, program, created) == play_cpu_program(NAIVE, program, created)


# Steps of a radio program, each at a tick of a busy first 600: a datagram of
# some payload bytes, a frame of some airtime heard directly, or a settle of
# every node.
RADIO_STEPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 600), st.sampled_from("abc"), st.integers(0, 90)),
    st.tuples(st.just("hear"), st.integers(0, 600), st.sampled_from("abc"), st.integers(0, 200)),
    st.tuples(st.just("settle"), st.integers(0, 600)),
)


def play_radio_program(impl, program, cpu_cost):
    """Run steps on three always-on nodes of impl in range of each other, each
    step scheduled before the run, so it precedes same-tick events of the run.
    A hear step runs only if its node is not sending, as in broadcast. Returns
    every node's books at every settle, and whether each hear step ran."""
    node_class, medium_class = impl
    engine = Engine()
    positions = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0)}
    medium = medium_class(engine, LinkModel(50.0, 1.0, 1.0, positions))
    nodes = {nid: node_class(nid, engine, medium, NO_DUTY, cpu_cost) for nid in positions}
    settled, heard = [], []

    def settle_all():
        settled.append([books(node.settle(engine.now)) for node in nodes.values()])

    def hear(node, air):
        heard.append(node._tx_until <= engine.now)
        if heard[-1]:
            node.hear(engine.now, air)

    for kind, tick, *args in program:
        if kind == "send":
            node_id, size = args
            dst = "abc".replace(node_id, "")[size % 2]
            engine.call_at(tick, nodes[node_id].datagrams.send, dst, bytes(size))
        elif kind == "hear":
            node_id, air = args
            engine.call_at(tick, hear, nodes[node_id], air)
        else:
            engine.call_at(tick, settle_all)
    engine.run(5000)
    settle_all()
    return settled, heard


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(RADIO_STEPS, max_size=25),
       st.sampled_from((CpuCostModel(), CpuCostModel(0, 0))))
def test_always_on_radio_books_match_transitions(program, cpu_cost):
    assert (play_radio_program(FAST, program, cpu_cost)
            == play_radio_program(NAIVE, program, cpu_cost))


def test_always_on_radio_settled_mid_tx_and_hearing_as_its_tx_ends():
    air = airtime_ticks(20 + 21 + 9)
    program = [
        ("send", 0, "a", 20),       # no CPU cost: a sends to b over [0, air)
        ("settle", air // 2),       # mid-TX
        ("hear", air, "a", 10),     # a hears at the tick its TX ends, before the end of TX runs
        ("settle", air),
        ("settle", air + 5),
    ]
    settled, heard = play_radio_program(FAST, program, CpuCostModel(0, 0))
    assert (settled, heard) == play_radio_program(NAIVE, program, CpuCostModel(0, 0))
    assert heard == [True]
    assert settled[-1][:2] == [(0, 5000, air, 5000 - air), (0, 5000, 0, 5000)]


# ---------------------------------------------------------------------------
# Stream transport

def test_stream_handshake_then_data():
    engine, medium, nodes = make_world()
    got, ups = [], []
    nodes["b"].streams.on_data = lambda conn, data: got.append(bytes(data))
    nodes["b"].streams.on_established = lambda conn: ups.append(conn.peer)
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(1))
    assert conn.state == "ESTABLISHED"
    assert ups == ["a"]
    nodes["a"].streams.send(conn, b"hello")
    engine.run(seconds_to_ticks(2))
    assert got == [b"hello"]


def test_stream_control_frame_size():
    engine, medium, nodes = make_world()
    nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(1))
    # control segments carry no payload: stream + link overhead only
    assert nodes["a"].sent_frames[0].length_bytes == 41 + 9


def test_stream_segments_respect_mss():
    engine, medium, nodes = make_world()
    got = []
    nodes["b"].streams.on_data = lambda conn, data: got.append(bytes(data))
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(1))
    payload = bytes(range(100)) * 1  # forces a 77 + 23 byte split
    nodes["a"].streams.send(conn, payload)
    engine.run(seconds_to_ticks(3))
    assert b"".join(got) == payload
    assert len(got) == 2
    data_frames = [f.length_bytes for f in nodes["a"].sent_frames
                   if f.length_bytes > 50]
    assert data_frames == [127, 23 + 41 + 9]


def test_stream_close_handshake():
    engine, medium, nodes = make_world()
    closed = []
    nodes["a"].streams.on_closed = lambda conn: closed.append(("a", conn.peer))
    nodes["b"].streams.on_closed = lambda conn: closed.append(("b", conn.peer))
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(1))
    before = len(nodes["a"].sent_frames) + len(nodes["b"].sent_frames)
    nodes["a"].streams.close(conn)
    engine.run(seconds_to_ticks(3))
    assert conn.state == "CLOSED"
    assert ("a", "b") in closed and ("b", "a") in closed
    after = len(nodes["a"].sent_frames) + len(nodes["b"].sent_frames)
    assert after - before == 2  # FIN plus its ack


def test_stream_retransmits_lost_syn():
    link = ScriptedLink({"a": (0.0, 0.0), "b": (10.0, 0.0)}, tx_script=[False])
    engine, medium, nodes = make_world(link=link)
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(0.25))
    assert conn.state == "SYN_SENT"  # first copy lost, timer pending
    engine.run(seconds_to_ticks(2))
    assert conn.state == "ESTABLISHED"
    syns = [f for f in nodes["a"].sent_frames
            if getattr(f.payload, "kind", "") == "syn"]
    assert len(syns) == 2


def test_stream_gives_up_after_retry_budget():
    link = ScriptedLink({"a": (0.0, 0.0), "b": (10.0, 0.0)}, tx_script=[False] * 16)
    engine, medium, nodes = make_world(link=link)
    failures = []
    nodes["a"].streams.on_failed = lambda conn, reason: failures.append(reason)
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(10))
    assert conn.state == "CLOSED"
    assert failures == ["retry-exhausted"]
    assert len(nodes["a"].sent_frames) == 4  # original plus three retries


def test_stream_duplicate_data_delivered_once():
    # handshake uses rx draws 1..3; keep the data (4), lose its ack (5)
    link = ScriptedLink({"a": (0.0, 0.0), "b": (10.0, 0.0)},
                        rx_script=[True, True, True, True, False])
    engine, medium, nodes = make_world(link=link)
    got = []
    nodes["b"].streams.on_data = lambda conn, data: got.append(bytes(data))
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(1))
    nodes["a"].streams.send(conn, b"once")
    engine.run(seconds_to_ticks(5))
    assert got == [b"once"]  # retransmitted copy was recognized and re-acked
    assert conn.inflight is None


def test_stream_data_establishes_a_listener_whose_handshake_ack_was_lost():
    # rx draws: the syn and the synack arrive, the handshake ACK is lost
    link = ScriptedLink({"a": (0.0, 0.0), "b": (10.0, 0.0)}, rx_script=[True, True, False])
    engine, medium, nodes = make_world(link=link)
    calls = []
    nodes["b"].streams.on_established = lambda conn: calls.append(conn.state)
    nodes["b"].streams.on_data = lambda conn, data: calls.append(bytes(data))
    conn = nodes["a"].streams.connect("b")
    engine.run(seconds_to_ticks(0.25))
    assert conn.state == "ESTABLISHED"
    assert nodes["b"].streams.conns[conn.conn_id].state == "SYN_RCVD"
    nodes["a"].streams.send(conn, b"early")
    engine.run(seconds_to_ticks(1))
    assert calls == ["ESTABLISHED", b"early"]


# Steps of a stream program, each at a tick of its first 0.9 s: a node opens a
# connection to another node, or sends bytes on, or closes, a connection it
# holds, picked by index.
STREAM_STEPS = st.tuples(st.integers(0, seconds_to_ticks(0.9)),
                         st.sampled_from(("connect", "send", "close")),
                         st.integers(0, 2), st.integers(0, 5), st.integers(1, 200))


def play_stream_program(node_count, loss, cpu_cost, seed, program):
    """Run a stream program on always-on nodes in range of each other; then,
    each second from 1 s on, close every connection that is established at
    the node that opened it, until no event is left. A close step, too,
    closes only a connection that its node opened and that is established,
    as every run of simulate() does: listeners never close. (A close in
    SYN_SENT, or from both ends, is not handled: see ROADMAP item 13.)

    Return each end's callbacks in order, keyed (node, connection id), as
    (callback, argument) pairs; the bytes each end sent, keyed the same way;
    and the (node, connection) of every connection opened."""
    engine = Engine(seed)
    positions = {node_id: (10.0 * i, 0.0) for i, node_id in enumerate("abc"[:node_count])}
    medium = RadioMedium(engine, LinkModel(50.0, *loss, positions))
    nodes = [Node(node_id, engine, medium, NO_DUTY, cpu_cost) for node_id in positions]
    calls, sent, opened = {}, {}, []
    for node in nodes:
        def record(name, node_id=node.node_id):
            return lambda conn, arg=b"": calls.setdefault(
                (node_id, conn.conn_id), []).append((name, arg))
        streams = node.streams
        streams.on_established, streams.on_data = record("established"), record("data")
        streams.on_closed, streams.on_failed = record("closed"), record("failed")

    def play(kind, node, pick, size):
        if kind == "connect":
            others = [other for other in nodes if other is not node]
            opened.append((node, node.streams.connect(others[pick % len(others)].node_id)))
            return
        conns = list(node.streams.conns.values())
        conn = conns[pick % len(conns)] if conns else None
        if conn is None or conn.state != "ESTABLISHED":
            return
        if kind == "send":
            data = sent.setdefault((node.node_id, conn.conn_id), bytearray())
            payload = bytes((len(data) + i) % 251 for i in range(size))
            data += payload
            node.streams.send(conn, payload)
        elif (node, conn) in opened:
            node.streams.close(conn)

    for tick, kind, node, pick, size in program:
        engine.call_at(tick, play, kind, nodes[node % node_count], pick, size)
    for second in range(1, 30):
        engine.run(seconds_to_ticks(second))
        for node, conn in opened:
            if conn.state == "ESTABLISHED":
                node.streams.close(conn)
    assert not engine._live  # every retransmission has run out
    return calls, sent, opened


# At 10,000 CPU ticks per frame (0.3 s) a reply outlasts the retransmission
# timeout, so duplicate synacks, data and acks arrive; without loss, only
# the default cost must close every connection at both ends.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(2, 3), st.sampled_from(((1.0, 1.0), (0.7, 1.0), (1.0, 0.6), (0.5, 0.5))),
       st.sampled_from((CpuCostModel(), CpuCostModel(10_000, 0))),
       st.integers(0, 2**16), st.lists(STREAM_STEPS, max_size=12))
def test_a_stream_hands_up_a_prefix_of_what_was_sent_between_one_start_and_one_end(
        node_count, loss, cpu_cost, seed, program):
    calls, sent, opened = play_stream_program(node_count, loss, cpu_cost, seed, program)
    openers = {(node.node_id, conn.conn_id) for node, conn in opened}
    ends = {}
    for (node_id, conn_id), names in calls.items():
        kinds = [name for name, _ in names]
        label = (node_id, conn_id, kinds)
        assert kinds.count("established") <= 1, label
        if "data" in kinds:
            assert kinds[0] == "established", label
        if (node_id, conn_id) not in openers and kinds[-2:] == ["closed", "failed"]:
            # A listener closed by the opener's FIN still sends what it had
            # in flight or queued, and fails once the closed opener ignores it.
            kinds.pop()
        assert [i for i, name in enumerate(kinds) if name in ("closed", "failed")] in (
            [], [len(kinds) - 1]), label
        ends[node_id, conn_id] = kinds[-1]
        received = b"".join(arg for name, arg in names if name == "data")
        peer_sent = [data for (sender, conn), data in sent.items()
                     if conn == conn_id and sender != node_id]
        assert bytes(*peer_sent).startswith(received), label
    if loss == (1.0, 1.0) and cpu_cost == CpuCostModel():
        for node, conn in opened:
            assert [end for (_, conn_id), end in ends.items() if conn_id == conn.conn_id] == [
                "closed", "closed"], (node.node_id, conn.conn_id)


# ---------------------------------------------------------------------------
# Senders that wait for a frame on air

def record_sends(medium):
    """Log (tick, src) of every frame put on air through medium."""
    sent = []
    broadcast = medium.broadcast
    medium.broadcast = lambda frame, now, *args: (sent.append((now, frame.src)),
                                                  broadcast(frame, now, *args))[1]
    return sent


def test_senders_that_publish_on_one_tick_keep_their_order_in_linear_events():
    # 20 duty-cycled clients send to a server at the same tick, in an order
    # other than their registration order. The first frame holds the other 19,
    # and every frame end used to wake each sender still waiting: 270 events.
    engine = Engine()
    ids = [f"c{i:02}" for i in range(20)]
    positions = {node_id: (2.0 * i, 0.0) for i, node_id in enumerate(ids)}
    positions["s"] = (20.0, 5.0)
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, positions))
    nodes = {node_id: Node(node_id, engine, medium, DutyCycleConfig(True, 8, 32))
             for node_id in positions}
    sent = record_sends(medium)
    order = sorted(ids, key=lambda node_id: int(node_id[1:]) * 7 % 20)
    for node_id in order:
        engine.call_at(1000, nodes[node_id].datagrams.send, "s", bytes(10))
    summary = engine.run(seconds_to_ticks(1))
    # Recorded while each waiting sender was an event of its own.
    assert sent == [(1092 + 42 * k, node_id) for k, node_id in enumerate(order)]
    # Each frame: a send, a CPU-done start, one shared wake-up, end of TX and
    # the server's dispatch.
    assert summary.events_dispatched <= 5 * len(ids)


def test_a_sender_does_not_join_waiters_when_an_event_came_between():
    # a and b both wait for s's frame, which ends at tick `end`; between their
    # deferrals an event is queued for `end` that puts c's frame on air. c is
    # in range of b only, so at `end` a sends, then c, and b waits for c.
    # Had b joined a's wake-up, b would send before c, and c would wait.
    engine = Engine()
    positions = {"s": (0.0, 0.0), "a": (-30.0, 0.0), "b": (30.0, 0.0), "c": (60.0, 0.0)}
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, positions))
    nodes = {node_id: Node(node_id, engine, medium, NO_DUTY) for node_id in positions}
    sent = record_sends(medium)

    def frame(src):
        return RadioFrame(src, "nobody", 100, b"")

    end = airtime_ticks(100)
    engine.call_at(0, nodes["s"]._start_tx, frame("s"))
    engine.call_at(10, nodes["a"]._start_tx, frame("a"))
    engine.call_at(10, lambda: engine.call_at(end, nodes["c"]._start_tx, frame("c")))
    engine.call_at(10, nodes["b"]._start_tx, frame("b"))
    engine.run(1000)
    assert sent == [(0, "s"), (end, "a"), (end, "c"), (2 * end, "b")]


def test_senders_that_defer_one_after_another_to_different_ticks_wake_apart():
    # a hears s's and x's frames, b only s's: a defers to the end of x's
    # longer frame, and right after it b to the end of s's frame.
    engine = Engine()
    positions = {"s": (0.0, 0.0), "x": (-70.0, 0.0), "a": (-30.0, 0.0), "b": (30.0, 0.0)}
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, positions))
    nodes = {node_id: Node(node_id, engine, medium, NO_DUTY) for node_id in positions}
    sent = record_sends(medium)
    for node_id, tick, length in (("s", 0, 100), ("x", 0, 120), ("a", 10, 50), ("b", 10, 50)):
        engine.call_at(tick, nodes[node_id]._start_tx, RadioFrame(node_id, "nobody", length, b""))
    engine.run(1000)
    assert sent == [(0, "s"), (0, "x"), (airtime_ticks(100), "b"), (airtime_ticks(120), "a")]


# ---------------------------------------------------------------------------
# Duty-cycled books: settle-only replay against the naive medium

REPLAY_PERIOD = 128  # ticks between checks at 256 Hz
REPLAY_IDS = "abcde"  # d is in range of b and e only
# Payloads whose datagram frames take 32, 63, 127 (P - 1), 128 (P) and 129 ticks.
REPLAY_PAYLOADS = (0, 0, 30, 91, 92, 93)
REPLAY_AIRS = (0, 1, 2, 16, 32, 32) + tuple(range(REPLAY_PERIOD - 2, REPLAY_PERIOD + 3)) + (
    2 * REPLAY_PERIOD,)
# A node's CPU cost per frame: none, so that its TX starts after the check
# round at its tick, or P + 1, so that a TX on a check tick starts before it.
REPLAY_COSTS = (CpuCostModel(0, 0), CpuCostModel(REPLAY_PERIOD + 1, 0))
REPLAY_OFFSETS = st.sampled_from((-2, -1, 0, 1, 2, 33, 64, 97))
# Steps, each at check k plus an offset: one to four datagrams from a node
# with a payload to an addressee (itself for a frame that every listener
# overhears and none receives), queued where the first one's CPU cost ends
# then; a frame of some airtime heard directly, before the check round at its
# tick or (late) after it; or a settle of every node. Airtimes near P make
# frames end next to check ticks and to other frames.
REPLAY_STEPS = st.one_of(
    st.tuples(st.just("send"), st.integers(2, 6), REPLAY_OFFSETS,
              st.sampled_from(REPLAY_IDS), st.sampled_from(REPLAY_PAYLOADS),
              st.sampled_from(REPLAY_IDS), st.integers(1, 4)),
    st.tuples(st.just("hear"), st.integers(0, 8), REPLAY_OFFSETS,
              st.sampled_from(REPLAY_IDS), st.sampled_from(REPLAY_AIRS), st.booleans()),
    st.tuples(st.just("settle"), st.integers(0, 10), st.sampled_from((-1, 0, 1, 33))),
)


def play_replay_program(impl, width, costs, program):
    """Run a program on duty-cycled nodes of impl, a hear step only if its node
    is not sending, as in broadcast; return the books of every settle and the
    (tick, src) of every frame sent."""
    node_class, medium_class = impl
    engine = Engine()
    positions = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0), "d": (55.0, 0.0),
                 "e": (10.0, 5.0)}
    medium = medium_class(engine, LinkModel(50.0, 1.0, 1.0, positions))
    duty = DutyCycleConfig(True, RTIMER_HZ // REPLAY_PERIOD, width)
    nodes = {node_id: node_class(node_id, engine, medium, duty, REPLAY_COSTS[cost])
             for node_id, cost in zip(REPLAY_IDS, costs)}
    sent = record_sends(medium)
    settled = []

    def settle_all():
        settled.extend((engine.now, books(node.settle(engine.now))) for node in nodes.values())

    def hear(node, air):
        if node._tx_until <= engine.now:  # as in broadcast: never while sending
            node.hear(engine.now, air)

    for kind, check, offset, *args in program:
        tick = max(0, check * REPLAY_PERIOD + offset)
        if kind == "send":
            src, size, dst, count = args
            node = nodes[src]
            for _ in range(count):
                engine.call_at(tick - node.cpu_cost.ticks_per_message,
                               node.datagrams.send, dst, bytes(size))
        elif kind == "hear":
            node_id, air, late = args
            if late:  # queued at the tick itself, after its check round
                engine.call_at(tick, engine.call_at, tick, hear, nodes[node_id], air)
            else:
                engine.call_at(tick, hear, nodes[node_id], air)
        else:
            engine.call_at(tick, settle_all)
    engine.run(30 * REPLAY_PERIOD)
    settle_all()
    return settled, sent


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from((0, 32, REPLAY_PERIOD - 1, REPLAY_PERIOD)),
       st.tuples(*[st.integers(0, len(REPLAY_COSTS) - 1)] * len(REPLAY_IDS)),
       st.lists(REPLAY_STEPS, min_size=5, max_size=30))
# A frame on a check tick, after its round: the check opens a window first.
@example(32, (0,) * len(REPLAY_IDS),
         [("hear", 1, 33, "a", 16, False), ("hear", 2, 0, "a", 1, True)])
# A frame of P + 1 ticks whose hold ends on a check tick, before the check.
@example(32, (0,) * len(REPLAY_IDS),
         [("hear", 1, 33, "a", 32, False), ("hear", 2, -1, "a", REPLAY_PERIOD + 1, False)])
# A frame of no airtime heard as the receive hold ends: the radio goes off
# with the hold.
@example(0, (0,) * len(REPLAY_IDS),
         [("hear", 1, 1, "a", 32, False), ("hear", 1, 33, "a", 0, False)])
# A frame of no airtime heard after a width-0 window has ended at its tick:
# the radio goes off at once.
@example(0, (0,) * len(REPLAY_IDS), [("hear", 0, 0, "a", 0, True), ("settle", 1, 0)])
def test_replay_books_match_the_naive_medium(width, costs, program):
    assert (play_replay_program(FAST, width, costs, program)
            == play_replay_program(NAIVE, width, costs, program))


# a and c form one listener group, b and e another, and d one of its own.
# With no CPU cost each TX starts after the check round at its tick. Each
# program comes with (tick, sender) of frames it must start.
NAMED_FRAME_PROGRAMS = {
    # a sends to itself, so c, b and e overhear what nobody receives; then c
    # sends to a, a sends to itself again, and b to itself, with settles.
    "sender-is-addressee": (
        [("send", 2, 0, "a", 0, "a", 2), ("settle", 3, 1), ("send", 4, 33, "c", 30, "a", 1),
         ("send", 6, 0, "a", 91, "a", 1), ("send", 8, 0, "b", 0, "b", 1), ("settle", 9, 0)],
        [(256, "a"), (288, "a"), (768, "a"), (1024, "b")]),
    # a and d are out of each other's range, so their frames start on one
    # tick and sit next to each other in the log of b and e, each addressed
    # to one of them; then the other way round.
    "two-frames-on-one-tick": (
        [("send", 2, 0, "a", 0, "b", 1), ("send", 2, 0, "d", 0, "e", 1), ("settle", 3, 0),
         ("send", 5, 0, "d", 30, "b", 1), ("send", 5, 0, "a", 30, "e", 1),
         ("send", 5, 1, "c", 0, "c", 1), ("settle", 7, 33)],
        [(256, "a"), (256, "d"), (640, "d"), (640, "a")]),
}


@pytest.mark.parametrize("width", (0, 32, REPLAY_PERIOD))
@pytest.mark.parametrize("name", NAMED_FRAME_PROGRAMS)
def test_a_member_skips_the_log_frames_that_name_it_as_sender_or_addressee(name, width):
    program, starts = NAMED_FRAME_PROGRAMS[name]
    costs = (0,) * len(REPLAY_IDS)
    fast = play_replay_program(FAST, width, costs, program)
    assert fast == play_replay_program(NAIVE, width, costs, program)
    assert set(starts) <= set(fast[1])


# ---------------------------------------------------------------------------
# Wake-ups: one event for many waiters against one per waiter

class PerWaiterMedium(RadioMedium):
    """A medium whose wake-ups start every waiter through Node._start_tx."""

    def _start_deferred(self, waiting):
        for node, frame in waiting:
            node._start_tx(frame)


HERD_DUTIES = (NO_DUTY, DutyCycleConfig(True, 8, 32), DutyCycleConfig(True, 256, 128))
# Steps: a run of 1-8 neighbouring senders, a tick offset from tick 1000
# (mostly the same tick, or a few ticks apart, or a frame or two later), an
# addressee, a payload, and whether to open a stream to the addressee instead.
HERD_STEPS = st.tuples(st.integers(0, 11), st.integers(1, 8),
                       st.sampled_from((0, 0, 0, 0, 1, 3, 40, 150)), st.integers(0, 11),
                       st.sampled_from((0, 10, 40, 90)), st.booleans())


def play_herd(impl, duties, range_m, cpu_cost, loss, steps):
    """Run steps on nodes of impl 10 m apart on a line; return the (tick, src)
    of every frame sent, every node's settled books, the events dispatched
    and the engine's next seq."""
    node_class, medium_class = impl
    engine = Engine(7)
    positions = {f"n{i:02}": (10.0 * i, 0.0) for i in range(len(duties))}
    medium = medium_class(engine, LinkModel(range_m, *loss, positions))
    nodes = [node_class(node_id, engine, medium, HERD_DUTIES[duty], cpu_cost)
             for node_id, duty in zip(positions, duties)]
    sent = record_sends(medium)
    for first, count, offset, dst, size, stream in steps:
        dst = nodes[dst % len(nodes)].node_id
        for src in range(first, first + count):
            node = nodes[src % len(nodes)]
            if stream and dst != node.node_id:
                engine.call_at(1000 + offset, node.streams.connect, dst)
            else:
                engine.call_at(1000 + offset, node.datagrams.send, dst, bytes(size))
    summary = engine.run(seconds_to_ticks(3))
    return (sent, [books(node.settle(engine.now)) for node in nodes],
            summary.events_dispatched, engine._next_seq)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(0, len(HERD_DUTIES) - 1), min_size=2, max_size=12),
       st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from((CpuCostModel(), CpuCostModel(0, 0))),
       st.sampled_from(((1.0, 1.0), (0.7, 0.8))),
       st.lists(HERD_STEPS, min_size=1, max_size=8))
def test_batched_wake_ups_and_fan_out_match_one_call_per_waiter_and_listener(
        duties, range_m, cpu_cost, loss, steps):
    """Sends and books match the naive medium's; the events dispatched and
    the seqs taken also match a wake-up per waiter on the fast medium."""
    fast = play_herd(FAST, duties, range_m, cpu_cost, loss, steps)
    assert fast == play_herd((Node, PerWaiterMedium), duties, range_m, cpu_cost, loss, steps)
    assert fast[:2] == play_herd(NAIVE, duties, range_m, cpu_cost, loss, steps)[:2]


# ---------------------------------------------------------------------------
# Whole runs: the fast medium against the naive medium

# Duty cycling off, or checks at 8 Hz and 256 Hz with widths from none to one
# period, so that window ends, hold ends, checks and frames fall on one tick.
ORACLE_DUTIES = [NO_DUTY] + [DutyCycleConfig(True, rate, width)
                             for rate, period in ((8, 4096), (256, 128))
                             for width in (0, 32, period - 1, period)]

ORACLE_CONFIGS = st.builds(
    ScenarioConfig, protocol=st.sampled_from(PROTOCOLS), clients=st.integers(1, 5),
    duration_s=st.sampled_from((2.0, 5.0)), interval_s=st.just(1.0),
    seed=st.integers(0, 2**16), payload_bytes=st.integers(0, 60),
    publish_period_s=st.sampled_from((0.125, 0.5)), publish_offset_s=st.sampled_from((0.0, 0.125)),
    tx_success=st.sampled_from((1.0, 0.7)), rx_success=st.sampled_from((1.0, 0.8)),
    range_m=st.sampled_from((50.0, 10.3)),  # at 10.3 m, clients 3 and 4 miss the server
    duty=st.sampled_from(ORACLE_DUTIES),
    cpu_cost=st.sampled_from((CpuCostModel(), CpuCostModel(0, 0))))


def assert_no_frame_starts_on_air(frames, positions, range_m):
    """No frame starts while a frame from its sender's range is on air, so no
    node hears while it sends: the precondition of RadioMedium.broadcast."""
    on_air = []  # (end, src) of the frames that may still be on air
    for tick, src, _, length in frames:
        on_air = [(end, other) for end, other in on_air if end > tick]
        for _, other in on_air:
            assert math.dist(positions[src], positions[other]) > range_m, (tick, src, other)
        on_air.append((tick + airtime_ticks(length), src))


def simulate_on(impl, config):
    """Simulate config with the node and medium classes of impl, and check
    that no frame starts while one from its sender's range is on air; return
    the trace rows, the (tick, src, dst, length) of every frame, and the notes."""
    node_class, medium_class = impl
    frames = []

    class RecordingMedium(medium_class):
        def broadcast(self, frame, now, air):
            frames.append((now, frame.src, frame.dst, frame.length_bytes))
            return super().broadcast(frame, now, air)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "Node", node_class)
        patch.setattr(harness, "RadioMedium", RecordingMedium)
        sim = simulate(config)
    link = sim.nodes["server"].medium.link
    assert_no_frame_starts_on_air(frames, link.positions, link.range_m)
    return {node_id: trace.rows for node_id, trace in sim.traces.items()}, frames, sim.events


@settings(derandomize=True, deadline=None, max_examples=50)
@given(ORACLE_CONFIGS)
def test_whole_runs_match_the_naive_medium(config):
    assert simulate_on(FAST, config) == simulate_on(NAIVE, config)


# Duty-cycled crowds in one cell or several: clients sit 1 m apart, so at
# 20 m and 12 m they and the server fall into many closed neighbourhoods,
# and the listeners of one frame replay it in several groups.
CROWD_CONFIGS = st.builds(
    ScenarioConfig, protocol=st.sampled_from(PROTOCOLS), clients=st.integers(6, 24),
    duration_s=st.just(2.0), interval_s=st.just(1.0), seed=st.integers(0, 2**16),
    publish_period_s=st.sampled_from((0.125, 0.5)), tx_success=st.sampled_from((1.0, 0.7)),
    range_m=st.sampled_from((50.0, 20.0, 12.0)), duty=st.sampled_from(ORACLE_DUTIES[1:]))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(CROWD_CONFIGS)
# hidden40: 40 MQTT-SN clients at 20 m, where senders out of each other's
# range reach common listeners.
@example(ScenarioConfig(protocol="mqtt-sn", clients=40, range_m=20.0, duration_s=2.0,
                        interval_s=1.0))
def test_crowd_runs_match_the_naive_medium(config):
    assert simulate_on(FAST, config) == simulate_on(NAIVE, config)


# ---------------------------------------------------------------------------
# Listener groups: what a group keeps

GROUP_DUTY = DutyCycleConfig(True, 256, 32)
GROUP_POSITIONS = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (5.0, 5.0)}


def test_a_group_log_keeps_only_the_frames_a_member_has_yet_to_replay():
    engine = Engine()
    medium = RadioMedium(engine, LinkModel(50.0, 1.0, 1.0, dict(GROUP_POSITIONS)))
    a, b = (Node(node_id, engine, medium, GROUP_DUTY) for node_id in "ab")
    sender = Node("c", engine, medium, NO_DUTY)
    for tick in (100, 600, 1100):
        engine.call_at(tick, sender.datagrams.send, "a", b"x")
    engine.run(800)
    group = a._group
    assert group is b._group and len(group.log) == 2
    a.settle(engine.now)
    assert len(group.log) == 2 and group.base == 0
    b.settle(engine.now)
    assert group.log == [] and group.base == 2
    engine.run(1500)
    a.settle(engine.now)
    assert len(group.log) == 1 and group.base == 2  # b has yet to replay frame 2
    b.settle(engine.now)
    assert group.log == [] and group.base == 3

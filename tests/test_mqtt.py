"""MQTT client and broker machines, inspected by the actions they return."""

from motesim.protocols import messages as wire
from motesim.protocols.actions import (
    ClientConfig,
    CloseStream,
    MsgIn,
    Notify,
    OpenStream,
    SendMsg,
    StartTimer,
    StopTimer,
    StreamDown,
    StreamUp,
    Started,
    TimerFired,
    next_grid_time,
)
from motesim.protocols.mqtt import (
    MAX_RETRIES,
    BrokerState,
    MqttClientState,
    broker_handle,
    mqtt_client_step,
)


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


def sent(actions):
    return [a.msg for a in only(actions, SendMsg)]


# ---------------------------------------------------------------------------
# Publish grid helper

def test_next_grid_time_lands_on_offset_plus_period_multiples():
    assert next_grid_time(0.0, 1.0, 5.0) == 1.0
    assert next_grid_time(0.9, 1.0, 5.0) == 1.0
    assert next_grid_time(1.0, 1.0, 5.0) == 6.0  # strictly after now
    assert next_grid_time(7.2, 1.0, 5.0) == 11.0
    assert next_grid_time(95.99, 1.0, 5.0) == 96.0


# ---------------------------------------------------------------------------
# Client

def test_client_connects_stream_then_speaks_mqtt():
    state = MqttClientState()
    actions = mqtt_client_step(state, Started(0.0))
    assert actions == [OpenStream("server")]
    assert state.phase == "connecting"

    actions = mqtt_client_step(state, StreamUp("server", 0.02))
    connect = sent(actions)[0]
    assert connect.type == wire.MQTT_CONNECT
    assert connect.client_id == "z1-client"
    assert any(t.key == "connack" for t in only(actions, StartTimer))
    assert state.phase == "handshaking"


def test_client_schedules_publish_grid_on_connack():
    state = MqttClientState()
    mqtt_client_step(state, Started(0.0))
    mqtt_client_step(state, StreamUp("server", 0.02))
    connack = wire.MqttMsg(wire.MQTT_CONNACK, rc=0)
    actions = mqtt_client_step(state, MsgIn(connack, "server", 0.05))
    assert state.phase == "up"
    assert StopTimer("connack") in actions
    timers = only(actions, StartTimer)
    assert any(t.key == "publish" and t.at_s == 1.0 for t in timers)


def _client_up():
    state = MqttClientState()
    mqtt_client_step(state, Started(0.0))
    mqtt_client_step(state, StreamUp("server", 0.02))
    mqtt_client_step(
        state, MsgIn(wire.MqttMsg(wire.MQTT_CONNACK, rc=0), "server", 0.05))
    return state


def test_publish_timer_emits_qos1_publish_and_rearms():
    state = _client_up()
    actions = mqtt_client_step(state, TimerFired("publish", 1.0))
    publish = sent(actions)[0]
    assert publish.type == wire.MQTT_PUBLISH
    assert publish.qos == 1
    assert publish.msg_id == 1
    assert publish.payload == bytes(30)
    assert publish.topic == "temperature"
    timers = only(actions, StartTimer)
    assert any(t.key == "puback:1" for t in timers)
    assert any(t.key == "publish" and t.at_s == 6.0 for t in timers)
    assert state.publishes_sent == 1
    assert "puback:1" in state.unacked


def test_puback_clears_inflight():
    state = _client_up()
    mqtt_client_step(state, TimerFired("publish", 1.0))
    puback = wire.MqttMsg(wire.MQTT_PUBACK, msg_id=1)
    actions = mqtt_client_step(state, MsgIn(puback, "server", 1.1))
    assert state.unacked == {}
    assert StopTimer("puback:1") in actions


def test_puback_timeout_retransmits_with_dup_flag():
    state = _client_up()
    mqtt_client_step(state, TimerFired("publish", 1.0))
    actions = mqtt_client_step(state, TimerFired("puback:1", 2.0))
    dup = sent(actions)[0]
    assert dup.type == wire.MQTT_PUBLISH
    assert dup.dup is True
    assert dup.msg_id == 1
    assert any(t.key == "puback:1" for t in only(actions, StartTimer))


def test_publish_gives_up_after_retry_budget():
    state = _client_up()
    mqtt_client_step(state, TimerFired("publish", 1.0))
    for _ in range(MAX_RETRIES):
        actions = mqtt_client_step(state, TimerFired("puback:1", 2.0))
        assert sent(actions)  # retransmission each time
    actions = mqtt_client_step(state, TimerFired("puback:1", 9.0))
    assert sent(actions) == []
    assert only(actions, Notify)[0].kind == "publish-failed"
    assert state.unacked == {}


def test_qos0_publish_needs_no_ack():
    state = MqttClientState(ClientConfig(qos=0))
    mqtt_client_step(state, Started(0.0))
    mqtt_client_step(state, StreamUp("server", 0.02))
    mqtt_client_step(
        state, MsgIn(wire.MqttMsg(wire.MQTT_CONNACK, rc=0), "server", 0.05))
    actions = mqtt_client_step(state, TimerFired("publish", 1.0))
    publish = sent(actions)[0]
    assert publish.qos == 0 and publish.msg_id == 0
    assert not any(t.key.startswith("puback") for t in only(actions, StartTimer))
    assert state.unacked == {}


def test_stream_failure_requeues_inflight_and_reconnects_on_next_tick():
    state = _client_up()
    mqtt_client_step(state, TimerFired("publish", 1.0))
    actions = mqtt_client_step(state, StreamDown("server", "failed", 2.5))
    assert state.phase == "idle"
    assert only(actions, Notify)[0].kind == "connection-lost"
    assert StopTimer("puback:1") in actions
    assert list(state.pending) == [bytes(30)]
    # the next publish tick queues its payload and reopens the stream
    actions = mqtt_client_step(state, TimerFired("publish", 6.0))
    assert OpenStream("server") in actions
    assert sent(actions) == []
    assert len(state.pending) == 2
    # the new session flushes the backlog, oldest first, under fresh ids
    mqtt_client_step(state, StreamUp("server", 6.05))
    actions = mqtt_client_step(
        state, MsgIn(wire.MqttMsg(wire.MQTT_CONNACK, rc=0), "server", 6.1))
    flushed = [m for m in sent(actions) if m.type == wire.MQTT_PUBLISH]
    assert [(m.msg_id, m.payload) for m in flushed] == [(2, bytes(30)), (3, bytes(30))]
    assert [t.key for t in only(actions, StartTimer)][:2] == ["puback:2", "puback:3"]
    assert not state.pending and sorted(state.unacked) == ["puback:2", "puback:3"]


def test_connack_timeout_resets_to_idle():
    state = MqttClientState()
    mqtt_client_step(state, Started(0.0))
    mqtt_client_step(state, StreamUp("server", 0.02))
    actions = mqtt_client_step(state, TimerFired("connack", 5.02))
    assert state.phase == "idle"
    assert only(actions, Notify)[0].kind == "connection-failed"
    assert CloseStream("server") in actions


def test_stream_down_while_handshaking_stops_the_connack_timer():
    state = MqttClientState()
    mqtt_client_step(state, Started(0.0))
    mqtt_client_step(state, StreamUp("server", 0.02))
    actions = mqtt_client_step(state, StreamDown("server", "failed", 1.0))
    assert state.phase == "idle"
    assert StopTimer("connack") in actions


def test_ping_timer_sends_pingreq():
    state = _client_up()
    actions = mqtt_client_step(state, TimerFired("ping", 30.0))
    assert sent(actions)[0].type == wire.MQTT_PINGREQ


# ---------------------------------------------------------------------------
# Broker

def test_broker_accepts_connect_and_acks():
    state = BrokerState()
    connect = wire.MqttMsg(wire.MQTT_CONNECT, client_id="node-1", keepalive_s=30)
    actions = broker_handle(state, connect, "client")
    assert sent(actions)[0].type == wire.MQTT_CONNACK


def _connected_broker(peers=("client",)):
    state = BrokerState()
    for peer in peers:
        connect = wire.MqttMsg(wire.MQTT_CONNECT, client_id=peer, keepalive_s=30)
        broker_handle(state, connect, peer)
    return state


def test_broker_deduplicates_retransmitted_publish():
    state = _connected_broker()
    publish = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=1, msg_id=3,
                           payload=b"x")
    broker_handle(state, publish, "client")
    dup = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=1, msg_id=3,
                       payload=b"x", dup=True)
    actions = broker_handle(state, dup, "client")
    # re-acked but not re-recorded
    assert sent(actions)[0].type == wire.MQTT_PUBACK
    assert len(state.received) == 1


def test_broker_answers_ping():
    state = _connected_broker()
    actions = broker_handle(state, wire.MqttMsg(wire.MQTT_PINGREQ), "client")
    assert sent(actions)[0].type == wire.MQTT_PINGRESP

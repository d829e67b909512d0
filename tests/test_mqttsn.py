"""MQTT-SN client machine and the gateway with its topic ids."""

from motesim.protocols import messages as wire
from motesim.protocols.actions import (
    MsgIn,
    Notify,
    SendMsg,
    StartTimer,
    StopTimer,
    Started,
    TimerFired,
)
from motesim.protocols.mqttsn import (
    MAX_RETRIES,
    GatewayState,
    SnClientState,
    gateway_handle,
    mqttsn_client_step,
)


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


def sent(actions):
    return [a.msg for a in only(actions, SendMsg)]


# ---------------------------------------------------------------------------
# Client

def test_client_startup_sequence_connect_register_publish():
    state = SnClientState()
    actions = mqttsn_client_step(state, Started(0.0))
    connect = sent(actions)[0]
    assert connect.type == wire.SN_CONNECT
    assert connect.client_id == "z1-client"

    connack = wire.MqttSnMsg(wire.SN_CONNACK, rc=0)
    actions = mqttsn_client_step(state, MsgIn(connack, "server", 0.05))
    register = sent(actions)[0]
    assert register.type == wire.SN_REGISTER
    assert register.topic == "temperature"
    assert state.phase == "registering"

    regack = wire.MqttSnMsg(wire.SN_REGACK, topic_id=9, msg_id=register.msg_id, rc=0)
    actions = mqttsn_client_step(state, MsgIn(regack, "server", 0.08))
    assert state.phase == "up"
    assert state.topic_id == 9
    timers = only(actions, StartTimer)
    assert any(t.key == "publish" and t.at_s == 1.0 for t in timers)


def _client_up(topic_id=9):
    state = SnClientState()
    mqttsn_client_step(state, Started(0.0))
    mqttsn_client_step(
        state, MsgIn(wire.MqttSnMsg(wire.SN_CONNACK, rc=0), "server", 0.05))
    regack = wire.MqttSnMsg(wire.SN_REGACK, topic_id=topic_id,
                            msg_id=state.unacked["regack"][0].msg_id, rc=0)
    mqttsn_client_step(state, MsgIn(regack, "server", 0.08))
    return state


def test_regack_with_wrong_msg_id_is_ignored():
    state = SnClientState()
    mqttsn_client_step(state, Started(0.0))
    mqttsn_client_step(
        state, MsgIn(wire.MqttSnMsg(wire.SN_CONNACK, rc=0), "server", 0.05))
    bogus = wire.MqttSnMsg(wire.SN_REGACK, topic_id=9, msg_id=999, rc=0)
    actions = mqttsn_client_step(state, MsgIn(bogus, "server", 0.06))
    assert state.phase == "registering"
    assert actions == []


def test_publish_uses_registered_topic_id():
    state = _client_up(topic_id=9)
    actions = mqttsn_client_step(state, TimerFired("publish", 1.0))
    publish = sent(actions)[0]
    assert publish.type == wire.SN_PUBLISH
    assert publish.topic_id == 9
    assert publish.payload == bytes(30)
    assert publish.qos == 1
    assert any(t.key == f"puback:{publish.msg_id}" for t in only(actions, StartTimer))


def test_puback_timeout_retransmits_then_gives_up():
    state = _client_up()
    actions = mqttsn_client_step(state, TimerFired("publish", 1.0))
    msg_id = sent(actions)[0].msg_id
    key = f"puback:{msg_id}"
    for _ in range(MAX_RETRIES):
        actions = mqttsn_client_step(state, TimerFired(key, 2.0))
        dup = sent(actions)[0]
        assert dup.dup is True and dup.msg_id == msg_id
    actions = mqttsn_client_step(state, TimerFired(key, 9.0))
    assert sent(actions) == []
    assert only(actions, Notify)[0].kind == "publish-failed"


def test_puback_clears_inflight():
    state = _client_up()
    actions = mqttsn_client_step(state, TimerFired("publish", 1.0))
    msg_id = sent(actions)[0].msg_id
    ack = wire.MqttSnMsg(wire.SN_PUBACK, topic_id=9, msg_id=msg_id, rc=0)
    actions = mqttsn_client_step(state, MsgIn(ack, "server", 1.2))
    assert state.unacked == {}
    assert StopTimer(f"puback:{msg_id}") in actions


def test_register_timeout_retries_then_fails():
    state = SnClientState()
    mqttsn_client_step(state, Started(0.0))
    mqttsn_client_step(
        state, MsgIn(wire.MqttSnMsg(wire.SN_CONNACK, rc=0), "server", 0.05))
    for _ in range(MAX_RETRIES):
        actions = mqttsn_client_step(state, TimerFired("regack", 1.0))
        assert sent(actions)[0].type == wire.SN_REGISTER
    actions = mqttsn_client_step(state, TimerFired("regack", 9.0))
    assert only(actions, Notify)[0].kind == "register-failed"
    assert state.phase == "idle"


def test_resent_register_keeps_its_msg_id():
    state = SnClientState()
    mqttsn_client_step(state, Started(0.0))
    actions = mqttsn_client_step(
        state, MsgIn(wire.MqttSnMsg(wire.SN_CONNACK, rc=0), "server", 0.05))
    register = sent(actions)[0]
    actions = mqttsn_client_step(state, TimerFired("regack", 1.05))
    assert sent(actions) == [register]
    regack = wire.MqttSnMsg(wire.SN_REGACK, topic_id=9, msg_id=register.msg_id, rc=0)
    actions = mqttsn_client_step(state, MsgIn(regack, "server", 1.1))
    assert state.phase == "up"
    assert StopTimer("regack") in actions


# ---------------------------------------------------------------------------
# Gateway

def test_gateway_accepts_connect_and_acks():
    state = GatewayState()
    connect = wire.MqttSnMsg(wire.SN_CONNECT, client_id="node-1", duration_s=30)
    actions = gateway_handle(state, connect, "client")
    assert sent(actions)[0].type == wire.SN_CONNACK


def test_gateway_register_assigns_topic_id():
    state = GatewayState()
    gateway_handle(
        state, wire.MqttSnMsg(wire.SN_CONNECT, client_id="n", duration_s=30), "client")
    register = wire.MqttSnMsg(wire.SN_REGISTER, msg_id=2, topic="temperature")
    actions = gateway_handle(state, register, "client")
    regack = sent(actions)[0]
    assert regack.type == wire.SN_REGACK
    assert regack.topic_id == 1 and regack.msg_id == 2
    assert state.topics == ["temperature"]


def _connected_gateway():
    state = GatewayState()
    gateway_handle(
        state, wire.MqttSnMsg(wire.SN_CONNECT, client_id="n", duration_s=30), "client")
    return state


def _register(state, topic, msg_id):
    register = wire.MqttSnMsg(wire.SN_REGISTER, msg_id=msg_id, topic=topic)
    return sent(gateway_handle(state, register, "client"))[0].topic_id


def test_gateway_numbers_topics_in_registration_order():
    state = _connected_gateway()
    assert _register(state, "temperature", 1) == 1
    assert _register(state, "humidity", 2) == 2
    assert _register(state, "temperature", 3) == 1  # a repeated REGISTER keeps its id
    assert state.topics == ["temperature", "humidity"]


def test_gateway_publish_reaches_broker_and_acks_in_sn():
    state = GatewayState()
    gateway_handle(
        state, wire.MqttSnMsg(wire.SN_CONNECT, client_id="n", duration_s=30), "client")
    gateway_handle(
        state, wire.MqttSnMsg(wire.SN_REGISTER, msg_id=1, topic="t"), "client")
    publish = wire.MqttSnMsg(wire.SN_PUBLISH, topic_id=1, msg_id=5, qos=1,
                             payload=b"v")
    actions = gateway_handle(state, publish, "client")
    ack = sent(actions)[0]
    assert ack.type == wire.SN_PUBACK
    assert ack.msg_id == 5 and ack.topic_id == 1
    assert state.broker.received[0][1].topic == "t"
    assert state.broker.received[0][1].payload == b"v"


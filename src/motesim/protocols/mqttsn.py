"""MQTT-SN client and gateway state machines over the datagram transport.

The gateway embeds a broker core: an inbound MQTT-SN PUBLISH becomes an MQTT
PUBLISH on the registered topic name, and the gateway answers with an MQTT-SN
PUBACK when the broker acks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (
    SERVER,
    ClientConfig,
    MsgIn,
    Notify,
    SendMsg,
    Started,
    StartTimer,
    StopTimer,
    TimerFired,
    next_msg_id,
    retry_publish,
    start_grid_timer,
)
from .messages import (
    MQTT_PUBLISH,
    MqttMsg,
    MqttSnMsg,
    SN_CONNACK,
    SN_CONNECT,
    SN_PUBACK,
    SN_PUBLISH,
    SN_REGACK,
    SN_REGISTER,
)
from .mqtt import BrokerState, broker_handle


# ---------------------------------------------------------------------------
# Client

KEEPALIVE_S = 30.0
CONNACK_TIMEOUT_S = 5.0
ACK_TIMEOUT_S = 1.0  # REGACK and PUBACK
MAX_RETRIES = 3  # REGISTER or PUBLISH resends before the client gives up


@dataclass
class SnClientState:
    config: ClientConfig = field(default_factory=ClientConfig)
    phase: str = "idle"  # idle, connecting, registering, up
    topic_id: int = 0
    next_msg_id: int = 1
    register_tries: int = 0
    register_msg_id: int = 0
    inflight: dict[int, tuple[MqttSnMsg, int]] = field(default_factory=dict)
    publishes_sent: int = 0


def _emit_publish(state: SnClientState, payload: bytes) -> list:
    cfg = state.config
    msg_id = next_msg_id(state) if cfg.qos > 0 else 0
    msg = MqttSnMsg(SN_PUBLISH, topic_id=state.topic_id, msg_id=msg_id,
                    payload=payload, qos=cfg.qos)
    state.publishes_sent += 1
    actions = [SendMsg(msg, SERVER)]
    if cfg.qos > 0:
        state.inflight[msg_id] = (msg, 0)
        actions.append(StartTimer(f"puback:{msg_id}", delay_s=ACK_TIMEOUT_S))
    return actions


def _send_register(state: SnClientState) -> list:
    state.register_msg_id = next_msg_id(state)
    register = MqttSnMsg(SN_REGISTER, topic_id=0, msg_id=state.register_msg_id,
                         topic=state.config.topic)
    return [SendMsg(register, SERVER),
            StartTimer("regack", delay_s=ACK_TIMEOUT_S)]


def mqttsn_client_step(state: SnClientState, event) -> list:
    cfg = state.config
    if isinstance(event, Started):
        state.phase = "connecting"
        connect = MqttSnMsg(SN_CONNECT, client_id=cfg.client_id,
                            duration_s=int(KEEPALIVE_S))
        return [SendMsg(connect, SERVER),
                StartTimer("connack", delay_s=CONNACK_TIMEOUT_S)]

    if isinstance(event, MsgIn):
        msg = event.msg
        if msg.type == SN_CONNACK and state.phase == "connecting":
            state.phase = "registering"
            return [StopTimer("connack")] + _send_register(state)
        if (msg.type == SN_REGACK and state.phase == "registering"
                and msg.msg_id == state.register_msg_id):
            state.phase = "up"
            state.topic_id = msg.topic_id
            return [StopTimer("regack")] + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if msg.type == SN_PUBACK and msg.msg_id in state.inflight:
            del state.inflight[msg.msg_id]
            return [StopTimer(f"puback:{msg.msg_id}")]

    if isinstance(event, TimerFired):
        if event.key == "publish":
            payload = bytes(cfg.payload_bytes)
            return _emit_publish(state, payload) + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if event.key == "connack":
            state.phase = "idle"
            return [Notify("connection-failed", "no CONNACK")]
        if event.key == "regack":
            if state.register_tries >= MAX_RETRIES:
                state.phase = "idle"
                return [Notify("register-failed", cfg.topic)]
            state.register_tries += 1
            return _send_register(state)
        if event.key.startswith("puback:"):
            return retry_publish(state, event.key, ACK_TIMEOUT_S, MAX_RETRIES)

    return []


# ---------------------------------------------------------------------------
# Gateway

@dataclass
class GatewayState:
    topics: list[str] = field(default_factory=list)  # topic id i names topics[i - 1]
    broker: BrokerState = field(default_factory=BrokerState)


def gateway_handle(state: GatewayState, msg: MqttSnMsg, sender: str) -> list:
    if msg.type == SN_CONNECT:
        state.broker.sessions[sender] = msg.client_id
        return [SendMsg(MqttSnMsg(SN_CONNACK, rc=0), sender)]

    if sender not in state.broker.sessions:
        return [Notify("dropped", f"unknown session {sender}")]

    if msg.type == SN_REGISTER:
        if msg.topic not in state.topics:
            state.topics.append(msg.topic)
        topic_id = state.topics.index(msg.topic) + 1
        regack = MqttSnMsg(SN_REGACK, topic_id=topic_id, msg_id=msg.msg_id, rc=0)
        return [SendMsg(regack, sender)]

    if msg.type == SN_PUBLISH:
        if not 0 < msg.topic_id <= len(state.topics):
            return [Notify("translation-error", f"unknown topic id {msg.topic_id}")]
        publish = MqttMsg(MQTT_PUBLISH, topic=state.topics[msg.topic_id - 1], qos=msg.qos,
                          msg_id=msg.msg_id, payload=msg.payload, dup=msg.dup)
        if not broker_handle(state.broker, publish, sender):
            return []
        puback = MqttSnMsg(SN_PUBACK, topic_id=msg.topic_id, msg_id=msg.msg_id, rc=0)
        return [SendMsg(puback, sender)]

    return []

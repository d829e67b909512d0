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


class TranslationError(KeyError):
    pass


@dataclass
class TopicRegistry:
    """Bidirectional topic name <-> 16-bit id map owned by the gateway."""

    by_name: dict[str, int] = field(default_factory=dict)
    by_id: dict[int, str] = field(default_factory=dict)
    next_id: int = 1

    def get_or_assign(self, topic: str) -> int:
        if topic in self.by_name:
            return self.by_name[topic]
        topic_id = self.next_id
        if topic_id > 0xFFFF:
            raise ValueError("topic id space exhausted")
        self.next_id += 1
        self.by_name[topic] = topic_id
        self.by_id[topic_id] = topic
        return topic_id

    def name_of(self, topic_id: int) -> str:
        if topic_id not in self.by_id:
            raise TranslationError(f"unknown topic id {topic_id}")
        return self.by_id[topic_id]


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


def mqttsn_client_step(state: SnClientState, event) -> tuple[SnClientState, list]:
    cfg = state.config
    if isinstance(event, Started):
        state.phase = "connecting"
        connect = MqttSnMsg(SN_CONNECT, client_id=cfg.client_id,
                            duration_s=int(KEEPALIVE_S))
        return state, [SendMsg(connect, SERVER),
                       StartTimer("connack", delay_s=CONNACK_TIMEOUT_S)]

    if isinstance(event, MsgIn):
        msg = event.msg
        if msg.type == SN_CONNACK and state.phase == "connecting":
            state.phase = "registering"
            return state, [StopTimer("connack")] + _send_register(state)
        if msg.type == SN_REGACK and state.phase == "registering":
            if msg.msg_id != state.register_msg_id:
                return state, []
            state.phase = "up"
            state.topic_id = msg.topic_id
            return state, [StopTimer("regack")] + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if msg.type == SN_PUBACK:
            if msg.msg_id in state.inflight:
                del state.inflight[msg.msg_id]
                return state, [StopTimer(f"puback:{msg.msg_id}")]
            return state, []
        return state, []

    if isinstance(event, TimerFired):
        if event.key == "publish":
            payload = bytes(cfg.payload_bytes)
            return state, _emit_publish(state, payload) + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if event.key == "connack":
            state.phase = "idle"
            return state, [Notify("connection-failed", "no CONNACK")]
        if event.key == "regack":
            if state.register_tries >= MAX_RETRIES:
                state.phase = "idle"
                return state, [Notify("register-failed", cfg.topic)]
            state.register_tries += 1
            return state, _send_register(state)
        if event.key.startswith("puback:"):
            return state, retry_publish(state, event.key, ACK_TIMEOUT_S, MAX_RETRIES)
        return state, []

    return state, []


# ---------------------------------------------------------------------------
# Gateway

@dataclass
class GatewayState:
    registry: TopicRegistry = field(default_factory=TopicRegistry)
    broker: BrokerState = field(default_factory=BrokerState)


def gateway_handle(state: GatewayState, msg: MqttSnMsg, sender: str) -> tuple[GatewayState, list]:
    if msg.type == SN_CONNECT:
        state.broker.sessions[sender] = msg.client_id
        return state, [SendMsg(MqttSnMsg(SN_CONNACK, rc=0), sender)]

    if sender not in state.broker.sessions:
        return state, [Notify("dropped", f"unknown session {sender}")]

    if msg.type == SN_REGISTER:
        topic_id = state.registry.get_or_assign(msg.topic)
        regack = MqttSnMsg(SN_REGACK, topic_id=topic_id, msg_id=msg.msg_id, rc=0)
        return state, [SendMsg(regack, sender)]

    if msg.type == SN_PUBLISH:
        try:
            topic = state.registry.name_of(msg.topic_id)
        except TranslationError as err:
            return state, [Notify("translation-error", str(err))]
        publish = MqttMsg(MQTT_PUBLISH, topic=topic, qos=msg.qos, msg_id=msg.msg_id,
                          payload=msg.payload, dup=msg.dup)
        state.broker, acks = broker_handle(state.broker, publish, sender)
        if not acks:
            return state, []
        puback = MqttSnMsg(SN_PUBACK, topic_id=msg.topic_id, msg_id=msg.msg_id, rc=0)
        return state, [SendMsg(puback, sender)]

    return state, []

"""MQTT-SN client and gateway state machines over the datagram transport.

The gateway embeds a broker core: an inbound MQTT-SN PUBLISH becomes an MQTT
PUBLISH on the registered topic name, and the gateway answers with an MQTT-SN
PUBACK when the broker acks it.
"""

from __future__ import annotations

from .actions import (
    SERVER,
    ClientConfig,
    MsgIn,
    Notify,
    SendMsg,
    Started,
    TimerFired,
    acked,
    await_ack,
    next_msg_id,
    resend,
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
CONNECT_RESENDS = 0  # no CONNACK in time: the client goes idle at once


class SnClientState:
    def __init__(self, config: ClientConfig = ClientConfig()):
        self.config = config
        self.phase = "idle"  # idle, connecting, registering, up
        self.topic_id = 0
        self.next_msg_id = 1
        self.unacked: dict[str, tuple[MqttSnMsg, int, float]] = {}
        self.publishes_sent = 0


def _emit_publish(state: SnClientState, payload: bytes) -> list:
    cfg = state.config
    msg_id = next_msg_id(state) if cfg.qos > 0 else 0
    msg = MqttSnMsg(SN_PUBLISH, topic_id=state.topic_id, msg_id=msg_id,
                    payload=payload, qos=cfg.qos)
    state.publishes_sent += 1
    if cfg.qos == 0:
        return [SendMsg(msg, SERVER)]
    return await_ack(state, f"puback:{msg_id}", msg, ACK_TIMEOUT_S, msg._replace(dup=True))


def mqttsn_client_step(state: SnClientState, event) -> list:
    cfg = state.config
    if isinstance(event, Started):
        state.phase = "connecting"
        connect = MqttSnMsg(SN_CONNECT, client_id=cfg.client_id,
                            duration_s=int(KEEPALIVE_S))
        return await_ack(state, "connack", connect, CONNACK_TIMEOUT_S)

    if isinstance(event, MsgIn):
        msg = event.msg
        if msg.type == SN_CONNACK and state.phase == "connecting":
            state.phase = "registering"
            register = MqttSnMsg(SN_REGISTER, msg_id=next_msg_id(state), topic=cfg.topic)
            return acked(state, "connack") + await_ack(state, "regack", register, ACK_TIMEOUT_S)
        if (msg.type == SN_REGACK and state.phase == "registering"
                and msg.msg_id == state.unacked["regack"][0].msg_id):
            state.phase = "up"
            state.topic_id = msg.topic_id
            return acked(state, "regack") + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if msg.type == SN_PUBACK:
            return acked(state, f"puback:{msg.msg_id}")

    if isinstance(event, TimerFired):
        if event.key == "publish":
            payload = bytes(cfg.payload_bytes)
            return _emit_publish(state, payload) + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s)
        if event.key == "connack":
            actions = resend(state, "connack", CONNECT_RESENDS,
                             Notify("connection-failed", "no CONNACK"))
        elif event.key == "regack":
            actions = resend(state, "regack", MAX_RETRIES,
                             Notify("register-failed", cfg.topic))
        else:  # puback:<msg_id>
            return resend(state, event.key, MAX_RETRIES,
                          Notify("publish-failed", event.key.replace("puback:", "msg_id ")))
        if event.key not in state.unacked:
            state.phase = "idle"
        return actions

    return []


# ---------------------------------------------------------------------------
# Gateway

class GatewayState:
    def __init__(self):
        self.topics: list[str] = []  # topic id i names topics[i - 1]
        self.broker = BrokerState()


def gateway_handle(state: GatewayState, msg: MqttSnMsg, sender: str) -> list:
    if msg.type == SN_CONNECT:
        return [SendMsg(MqttSnMsg(SN_CONNACK, rc=0), sender)]

    if msg.type == SN_REGISTER:
        if msg.topic not in state.topics:
            state.topics.append(msg.topic)
        topic_id = state.topics.index(msg.topic) + 1
        regack = MqttSnMsg(SN_REGACK, topic_id=topic_id, msg_id=msg.msg_id, rc=0)
        return [SendMsg(regack, sender)]

    if msg.type == SN_PUBLISH:
        publish = MqttMsg(MQTT_PUBLISH, topic=state.topics[msg.topic_id - 1], qos=msg.qos,
                          msg_id=msg.msg_id, payload=msg.payload, dup=msg.dup)
        if not broker_handle(state.broker, publish, sender):
            return []
        puback = MqttSnMsg(SN_PUBACK, topic_id=msg.topic_id, msg_id=msg.msg_id, rc=0)
        return [SendMsg(puback, sender)]

    return []

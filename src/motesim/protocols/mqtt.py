"""MQTT client and broker state machines over the reliable stream transport."""

from __future__ import annotations

from collections import deque

from .actions import (
    SERVER,
    ClientConfig,
    CloseStream,
    MsgIn,
    Notify,
    OpenStream,
    SendMsg,
    Started,
    StartTimer,
    StopTimer,
    StreamDown,
    StreamUp,
    TimerFired,
    acked,
    await_ack,
    next_msg_id,
    resend,
    start_grid_timer,
)
from .messages import (
    MQTT_CONNACK,
    MQTT_CONNECT,
    MQTT_PINGREQ,
    MQTT_PINGRESP,
    MQTT_PUBACK,
    MQTT_PUBLISH,
    MqttMsg,
)

KEEPALIVE_S = 30.0
CONNACK_TIMEOUT_S = 5.0
PUBACK_TIMEOUT_S = 1.0
MAX_RETRIES = 3  # PUBLISH resends before the client gives up


class MqttClientState:
    def __init__(self, config: ClientConfig = ClientConfig()):
        self.config = config
        self.phase = "idle"  # idle, connecting, handshaking, up
        self.next_msg_id = 1
        self.unacked: dict[str, tuple[MqttMsg, int, float]] = {}
        self.pending: deque = deque()
        self.publishes_sent = 0


def _emit_publish(state: MqttClientState, payload: bytes) -> list:
    cfg = state.config
    msg_id = next_msg_id(state) if cfg.qos > 0 else 0
    msg = MqttMsg(MQTT_PUBLISH, topic=cfg.topic, qos=cfg.qos,
                  msg_id=msg_id, payload=payload)
    state.publishes_sent += 1
    if cfg.qos == 0:
        return [SendMsg(msg, SERVER)]
    return await_ack(state, f"puback:{msg_id}", msg, PUBACK_TIMEOUT_S, msg._replace(dup=True))


def _rearm_ping() -> list:
    return [StartTimer("ping", delay_s=KEEPALIVE_S)]


def mqtt_client_step(state: MqttClientState, event) -> list:
    cfg = state.config
    if isinstance(event, Started):
        state.phase = "connecting"
        return [OpenStream(SERVER)]

    if isinstance(event, StreamUp):
        state.phase = "handshaking"
        connect = MqttMsg(MQTT_CONNECT, client_id=cfg.client_id,
                          keepalive_s=int(KEEPALIVE_S))
        return [SendMsg(connect, SERVER),
                StartTimer("connack", delay_s=CONNACK_TIMEOUT_S),
                *_rearm_ping()]

    if isinstance(event, StreamDown):
        state.phase = "idle"
        actions = [Notify("connection-lost", event.reason), StopTimer("ping"),
                   StopTimer("connack")]
        for key, (msg, _, _) in list(state.unacked.items()):
            state.pending.append(msg.payload)
            actions += acked(state, key)
        return actions

    if isinstance(event, MsgIn):
        msg = event.msg
        if msg.type == MQTT_CONNACK and state.phase == "handshaking":
            state.phase = "up"
            actions = [StopTimer("connack")]
            while state.pending:
                actions += _emit_publish(state, state.pending.popleft())
            return actions + start_grid_timer(
                "publish", event.now_s, cfg.offset_s, cfg.period_s) + _rearm_ping()
        if msg.type == MQTT_PUBACK:
            return acked(state, f"puback:{msg.msg_id}")

    if isinstance(event, TimerFired):
        if event.key == "publish":
            payload = bytes(cfg.payload_bytes)
            actions = start_grid_timer("publish", event.now_s, cfg.offset_s, cfg.period_s)
            if state.phase != "up":
                # link is down; queue and let the reconnect flush the backlog
                state.pending.append(payload)
                if state.phase == "idle":
                    state.phase = "connecting"
                    actions.append(OpenStream(SERVER))
                return actions
            return _emit_publish(state, payload) + actions + _rearm_ping()
        if event.key == "connack":
            state.phase = "idle"
            return [Notify("connection-failed", "no CONNACK"),
                    CloseStream(SERVER)]
        if event.key == "ping":
            ping = MqttMsg(MQTT_PINGREQ)
            return [SendMsg(ping, SERVER)] + _rearm_ping()
        if event.key.startswith("puback:"):
            return resend(state, event.key, MAX_RETRIES,
                          Notify("publish-failed", event.key.replace("puback:", "msg_id ")))

    return []


# ---------------------------------------------------------------------------
# Broker

class BrokerState:
    def __init__(self):
        self.received: list[tuple[str, MqttMsg]] = []
        self.acked_ids: dict[str, int] = {}  # dedup per publisher


def broker_handle(state: BrokerState, msg: MqttMsg, sender: str) -> list:
    if msg.type == MQTT_CONNECT:
        return [SendMsg(MqttMsg(MQTT_CONNACK, rc=0), sender)]

    if msg.type == MQTT_PUBLISH:
        is_dup = msg.qos > 0 and state.acked_ids.get(sender, 0) >= msg.msg_id
        if not is_dup:
            state.received.append((sender, msg))
        if msg.qos == 0:
            return []
        state.acked_ids[sender] = max(state.acked_ids.get(sender, 0), msg.msg_id)
        return [SendMsg(MqttMsg(MQTT_PUBACK, msg_id=msg.msg_id), sender)]

    if msg.type == MQTT_PINGREQ:
        return [SendMsg(MqttMsg(MQTT_PINGRESP), sender)]

    return []

"""CoAP client and resource-server state machines over the datagram transport.

Confirmable requests retransmit with exponential backoff until acknowledged;
non-confirmable requests are fire-and-forget. Responses piggyback on ACKs.
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
from .messages import COAP_ACK, COAP_CON, COAP_NON, CoapMsg


# RFC 7252 section 4.8 transmission parameters, without ACK_RANDOM_FACTOR
# jitter: the first timeout is exactly ACK_TIMEOUT_S, and each retransmission
# doubles it.
ACK_TIMEOUT_S = 2.0
BACKOFF_FACTOR = 2.0
MAX_RETRANSMIT = 4

TOKEN_BYTES = 8  # the longest token; it carries the message id, zero-padded


class CoapClientState:
    def __init__(self, config: ClientConfig = ClientConfig()):
        self.config = config
        self.next_msg_id = 1
        self.unacked: dict[str, tuple[CoapMsg, int, float]] = {}
        self.responses: list[CoapMsg] = []
        self.requests_sent = 0


def _emit_request(state: CoapClientState) -> list:
    cfg = state.config
    msg_id = next_msg_id(state)
    confirmable = cfg.qos > 0
    request = CoapMsg(COAP_CON if confirmable else COAP_NON, "GET", msg_id,
                      msg_id.to_bytes(TOKEN_BYTES, "big"), cfg.topic)
    state.requests_sent += 1
    if not confirmable:
        return [SendMsg(request, SERVER)]
    return await_ack(state, f"retx:{msg_id}", request, ACK_TIMEOUT_S)


def coap_exchange(state: CoapClientState, event) -> list:
    cfg = state.config
    if isinstance(event, Started):
        return start_grid_timer("request", event.now_s, cfg.offset_s, cfg.period_s)

    if isinstance(event, TimerFired):
        if event.key == "request":
            return _emit_request(state) + start_grid_timer(
                "request", event.now_s, cfg.offset_s, cfg.period_s)
        if event.key.startswith("retx:"):
            return resend(state, event.key, MAX_RETRANSMIT,
                          Notify("exchange-failed", event.key.replace("retx:", "msg_id ")),
                          BACKOFF_FACTOR)

    if isinstance(event, MsgIn):
        msg = event.msg
        key = f"retx:{msg.msg_id}"
        if msg.mtype == COAP_NON or (msg.mtype == COAP_ACK and key in state.unacked):
            state.responses.append(msg)  # a NON may answer a non-confirmable request
            return acked(state, key)

    return []


# ---------------------------------------------------------------------------
# Server

class CoapServerState:
    def __init__(self, resource: bytes):
        self.resource = resource  # served to every request
        self.seen: dict[tuple[str, int], CoapMsg] = {}
        self.requests_handled = 0


def coap_server_handle(state: CoapServerState, msg: CoapMsg, sender: str) -> list:
    key = (sender, msg.msg_id)
    if key in state.seen:
        # duplicate request: repeat the cached response, do not re-process
        return [SendMsg(state.seen[key], sender)]
    reply_type = COAP_ACK if msg.mtype == COAP_CON else COAP_NON
    response = CoapMsg(reply_type, "2.05", msg.msg_id, msg.token, payload=state.resource)
    state.requests_handled += 1
    state.seen[key] = response
    return [SendMsg(response, sender)]

"""HTTP client and origin-server state machines over the stream transport.

One connection per request: connect, send the request, read the response,
close. No keep-alive, so every request pays the full handshake and teardown.
"""

from __future__ import annotations

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
    start_grid_timer,
)
from .messages import HttpRequest, HttpResponse


RESPONSE_TIMEOUT_S = 5.0


class HttpClientState:
    def __init__(self, config: ClientConfig = ClientConfig()):
        self.config = config
        self.phase = "idle"  # idle, connecting, awaiting, closing
        self.responses: list[HttpResponse] = []
        self.requests_sent = 0


def http_step(state: HttpClientState, event) -> list:
    cfg = state.config
    if isinstance(event, Started):
        return start_grid_timer("request", event.now_s, cfg.offset_s, cfg.period_s)

    if isinstance(event, TimerFired):
        if event.key == "request":
            actions = start_grid_timer("request", event.now_s, cfg.offset_s, cfg.period_s)
            if state.phase == "idle":
                state.phase = "connecting"
                actions.append(OpenStream(SERVER))
            return actions
        if event.key == "response":
            state.phase = "closing"
            return [Notify("request-failed", "response timeout"),
                    CloseStream(SERVER)]

    if isinstance(event, StreamUp):
        state.phase = "awaiting"
        state.requests_sent += 1
        request = HttpRequest("GET", cfg.path, cfg.host)
        return [SendMsg(request, SERVER),
                StartTimer("response", delay_s=RESPONSE_TIMEOUT_S)]

    if isinstance(event, MsgIn):
        if isinstance(event.msg, HttpResponse) and state.phase == "awaiting":
            state.responses.append(event.msg)
            state.phase = "closing"
            return [StopTimer("response"), CloseStream(SERVER)]

    if isinstance(event, StreamDown):
        state.phase = "idle"
        if event.reason == "failed":
            return [Notify("request-failed", "connection failed"),
                    StopTimer("response")]

    return []


# ---------------------------------------------------------------------------
# Server

class HttpServerState:
    def __init__(self, resource: bytes):
        self.resource = resource  # served to every request
        self.requests_handled = 0


def http_server_handle(state: HttpServerState, msg: HttpRequest, sender: str) -> list:
    state.requests_handled += 1
    return [SendMsg(HttpResponse(200, state.resource), sender)]

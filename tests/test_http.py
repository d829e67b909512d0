"""HTTP machines: one connection per request, timeout handling, server replies."""

from motesim.protocols import messages as wire
from motesim.protocols.actions import (
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
)
from motesim.protocols.http import (
    HttpClientState,
    HttpServerState,
    http_server_handle,
    http_step,
)


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


def sent(actions):
    return [a.msg for a in only(actions, SendMsg)]


# ---------------------------------------------------------------------------
# Client

def test_started_schedules_request_grid():
    actions = http_step(HttpClientState(), Started(0.0))
    timers = only(actions, StartTimer)
    assert timers[0].key == "request" and timers[0].at_s == 1.0


def test_request_tick_opens_fresh_connection():
    state = HttpClientState()
    http_step(state, Started(0.0))
    actions = http_step(state, TimerFired("request", 1.0))
    assert OpenStream("server") in actions
    assert state.phase == "connecting"
    timers = only(actions, StartTimer)
    assert any(t.key == "request" and t.at_s == 6.0 for t in timers)


def test_request_tick_while_busy_only_reschedules():
    state = HttpClientState()
    state.phase = "awaiting"
    actions = http_step(state, TimerFired("request", 6.0))
    assert only(actions, OpenStream) == []
    assert any(t.key == "request" for t in only(actions, StartTimer))


def test_stream_up_sends_get_and_arms_timeout():
    state = HttpClientState()
    state.phase = "connecting"
    actions = http_step(state, StreamUp("server", 1.1))
    request = sent(actions)[0]
    assert request == wire.HttpRequest("GET", "/temperature", "server")
    assert any(t.key == "response" for t in only(actions, StartTimer))
    assert state.phase == "awaiting"
    assert state.requests_sent == 1


def test_response_recorded_then_connection_closed():
    state = HttpClientState()
    state.phase = "connecting"
    http_step(state, StreamUp("server", 1.1))
    response = wire.HttpResponse(200, b"21C")
    actions = http_step(state, MsgIn(response, "server", 1.4))
    assert state.responses == [response]
    assert StopTimer("response") in actions
    assert CloseStream("server") in actions
    actions = http_step(state, StreamDown("server", "closed", 1.6))
    assert state.phase == "idle"
    assert actions == []


def test_response_timeout_gives_up_and_closes():
    state = HttpClientState()
    state.phase = "awaiting"
    actions = http_step(state, TimerFired("response", 6.1))
    assert only(actions, Notify)[0].kind == "request-failed"
    assert CloseStream("server") in actions


def test_stream_failure_reported():
    state = HttpClientState()
    state.phase = "awaiting"
    actions = http_step(state, StreamDown("server", "failed", 3.0))
    assert state.phase == "idle"
    assert only(actions, Notify)[0].kind == "request-failed"
    assert StopTimer("response") in actions


def test_unexpected_response_ignored():
    state = HttpClientState()
    actions = http_step(state, MsgIn(wire.HttpResponse(200, b""), "server", 9.0))
    assert actions == []
    assert state.responses == []


# ---------------------------------------------------------------------------
# Server

def test_server_serves_known_path():
    state = HttpServerState(b"21C")
    request = wire.HttpRequest("GET", "/temperature", "server")
    actions = http_server_handle(state, request, "client")
    response = sent(actions)[0]
    assert response.status == 200
    assert response.body == b"21C"
    assert state.requests_handled == 1

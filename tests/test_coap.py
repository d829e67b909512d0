"""CoAP request/response machines: retransmission backoff and server dedup."""

from motesim.protocols import messages as wire
from motesim.protocols.actions import (
    ClientConfig,
    MsgIn,
    Notify,
    SendMsg,
    StartTimer,
    StopTimer,
    Started,
    TimerFired,
)
from motesim.protocols.coap import (
    CoapClientState,
    CoapServerState,
    coap_exchange,
    coap_server_handle,
)


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


def sent(actions):
    return [a.msg for a in only(actions, SendMsg)]


def _first_request(state=None):
    state = state or CoapClientState()
    coap_exchange(state, Started(0.0))
    actions = coap_exchange(state, TimerFired("request", 1.0))
    return state, actions


# ---------------------------------------------------------------------------
# Client

def test_started_schedules_first_request_on_grid():
    actions = coap_exchange(CoapClientState(), Started(0.0))
    timers = only(actions, StartTimer)
    assert len(timers) == 1
    assert timers[0].key == "request" and timers[0].at_s == 1.0


def test_request_is_confirmable_get_with_derived_token():
    state, actions = _first_request()
    request = sent(actions)[0]
    assert request.mtype == wire.COAP_CON
    assert request.code == "GET"
    assert request.uri_path == "temperature"
    assert request.msg_id == 1
    assert request.token == bytes(6) + (1).to_bytes(2, "big")
    assert len(request.token) == 8
    timers = only(actions, StartTimer)
    assert any(t.key == "retx:1" and t.delay_s == 2.0 for t in timers)
    assert any(t.key == "request" and t.at_s == 6.0 for t in timers)
    assert state.requests_sent == 1


def test_ack_response_completes_exchange():
    state, actions = _first_request()
    request = sent(actions)[0]
    response = wire.CoapMsg(wire.COAP_ACK, "2.05", request.msg_id,
                            request.token, payload=b"22")
    actions = coap_exchange(state, MsgIn(response, "server", 1.1))
    assert state.unacked == {}
    assert state.responses == [response]
    assert StopTimer("retx:1") in actions


def test_retransmission_backs_off_exponentially():
    state, actions = _first_request()
    request = sent(actions)[0]
    expected_delays = [4.0, 8.0, 16.0, 32.0]  # doubled from the 2 s base
    for expected in expected_delays:
        actions = coap_exchange(state, TimerFired("retx:1", 0.0))
        assert sent(actions) == [request]  # identical copy, same msg id
        timer = only(actions, StartTimer)[0]
        assert timer.key == "retx:1"
        assert timer.delay_s == expected
    # budget exhausted
    actions = coap_exchange(state, TimerFired("retx:1", 99.0))
    assert sent(actions) == []
    assert only(actions, Notify)[0].kind == "exchange-failed"
    assert state.unacked == {}


def test_non_confirmable_mode_sends_without_retx_state():
    config = ClientConfig(qos=0)
    state, actions = _first_request(CoapClientState(config))
    request = sent(actions)[0]
    assert request.mtype == wire.COAP_NON
    assert state.unacked == {}
    assert not any(t.key.startswith("retx") for t in only(actions, StartTimer))
    response = wire.CoapMsg(wire.COAP_NON, "2.05", request.msg_id,
                            request.token, payload=b"22")
    coap_exchange(state, MsgIn(response, "server", 1.2))
    assert state.responses == [response]


def test_stray_ack_is_ignored():
    state, _ = _first_request()
    stray = wire.CoapMsg(wire.COAP_ACK, "2.05", 777, payload=b"?")
    actions = coap_exchange(state, MsgIn(stray, "server", 1.5))
    assert actions == []
    assert state.responses == []


# ---------------------------------------------------------------------------
# Server

def test_server_answers_get_with_piggybacked_content():
    state = CoapServerState(b"21C")
    request = wire.CoapMsg(wire.COAP_CON, "GET", 3, b"tok", "temperature")
    actions = coap_server_handle(state, request, "client")
    response = sent(actions)[0]
    assert response.mtype == wire.COAP_ACK
    assert response.code == "2.05"
    assert response.msg_id == 3
    assert response.token == b"tok"
    assert response.payload == b"21C"
    assert state.requests_handled == 1


def test_server_repeats_cached_response_for_duplicates():
    state = CoapServerState(b"21C")
    request = wire.CoapMsg(wire.COAP_CON, "GET", 3, b"tok", "temperature")
    first = coap_server_handle(state, request, "client")
    second = coap_server_handle(state, request, "client")
    assert sent(second) == sent(first)
    assert state.requests_handled == 1  # not re-processed
    # the same msg id from a different sender is a fresh exchange
    coap_server_handle(state, request, "other")
    assert state.requests_handled == 2


def test_server_mirrors_non_confirmable_type():
    state = CoapServerState(b"21C")
    request = wire.CoapMsg(wire.COAP_NON, "GET", 8, b"t", "temperature")
    actions = coap_server_handle(state, request, "client")
    assert sent(actions)[0].mtype == wire.COAP_NON

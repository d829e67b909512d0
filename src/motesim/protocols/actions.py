"""Shared vocabulary for protocol state machines.

Machines update their state in place and return what to do:
step(state, event) -> actions. All timing and I/O happens in the runtime that
executes the returned actions.

Actions, events and ClientConfig are immutable NamedTuples, equal only to a
record of the same type (see typed); copy one with _replace to change it.

Every client resends by one rule, kept in its state's `unacked` dict by timer
key: `await_ack` sends and arms the timer, `resend` repeats the same message
each time it fires until a budget runs out, and `acked` ends the wait.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

# The one server node every client talks to: MQTT broker, MQTT-SN gateway,
# CoAP or HTTP origin server.
SERVER = "server"


def typed(cls):
    """Make NamedTuple cls compare by type as well as by fields: plain
    NamedTuples with equal fields are equal whatever their type, so
    OpenStream(SERVER) would equal CloseStream(SERVER). The hash stays the tuple's."""
    cls.__eq__ = lambda self, other: type(self) is type(other) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    return cls


@typed
class ClientConfig(NamedTuple):
    """What a scenario sets for one client; timing and retry values are
    per-protocol module constants."""

    client_id: str = "z1-client"
    topic: str = "temperature"  # also the CoAP Uri-Path
    qos: int = 1  # CoAP requests are confirmable when qos > 0
    payload_bytes: int = 30
    offset_s: float = 1.0
    period_s: float = 5.0
    host: str = "server"  # HTTP Host header
    path: str = "/temperature"  # HTTP request path


# -- actions ----------------------------------------------------------------

@typed
class SendMsg(NamedTuple):
    msg: object
    dst: str


@typed
class StartTimer(NamedTuple):
    key: str
    delay_s: Optional[float] = None
    at_s: Optional[float] = None  # absolute alternative to delay_s


@typed
class StopTimer(NamedTuple):
    key: str


@typed
class OpenStream(NamedTuple):
    dst: str


@typed
class CloseStream(NamedTuple):
    dst: str


@typed
class Notify(NamedTuple):
    kind: str
    detail: str = ""


# -- events -----------------------------------------------------------------

@typed
class Started(NamedTuple):
    now_s: float


@typed
class TimerFired(NamedTuple):
    key: str
    now_s: float


@typed
class MsgIn(NamedTuple):
    msg: object
    src: str
    now_s: float


@typed
class StreamUp(NamedTuple):
    peer: str
    now_s: float


@typed
class StreamDown(NamedTuple):
    peer: str
    reason: str
    now_s: float


def next_grid_time(now_s: float, offset_s: float, period_s: float) -> float:
    """First time strictly after now_s on the grid offset + k * period."""
    if now_s < offset_s:
        return offset_s
    k = int((now_s - offset_s) / period_s) + 1
    t = offset_s + k * period_s
    while t <= now_s:
        t += period_s
    return t


def start_grid_timer(key: str, now_s: float, offset_s: float, period_s: float) -> list:
    """Arm timer `key` for the next grid slot after now_s; no timer if period_s <= 0."""
    if period_s <= 0:
        return []
    return [StartTimer(key, at_s=next_grid_time(now_s, offset_s, period_s))]


def next_msg_id(state) -> int:
    """Take state.next_msg_id and advance the 16-bit counter, which wraps to 1."""
    msg_id = state.next_msg_id
    state.next_msg_id = msg_id % 0xFFFF + 1
    return msg_id


def await_ack(state, key: str, msg, timeout_s: float, resend_as=None) -> list:
    """Send msg to the server and arm timer `key`; until acked(state, key),
    resend() sends resend_as (msg itself by default)."""
    state.unacked[key] = (msg if resend_as is None else resend_as, 0, timeout_s)
    return [SendMsg(msg, SERVER), StartTimer(key, delay_s=timeout_s)]


def acked(state, key: str) -> list:
    """The ack for `key` arrived: forget its message and stop its timer."""
    return [] if state.unacked.pop(key, None) is None else [StopTimer(key)]


def resend(state, key: str, max_resends: int, failed: Notify, backoff: float = 1.0) -> list:
    """Timer `key` fired: resend its message and rearm with the timeout times
    backoff, or forget it and return [failed] after max_resends resends."""
    entry = state.unacked.get(key)
    if entry is None:
        return []
    msg, resends, timeout_s = entry
    if resends >= max_resends:
        del state.unacked[key]
        return [failed]
    timeout_s *= backoff
    state.unacked[key] = (msg, resends + 1, timeout_s)
    return [SendMsg(msg, SERVER), StartTimer(key, delay_s=timeout_s)]

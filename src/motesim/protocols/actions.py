"""Shared vocabulary for protocol state machines.

Machines are pure: step(state, event) -> (state, actions). All timing and I/O
happens in the runtime that executes the returned actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


# -- actions ----------------------------------------------------------------

@dataclass(frozen=True)
class SendMsg:
    msg: object
    dst: str


@dataclass(frozen=True)
class StartTimer:
    key: str
    delay_s: Optional[float] = None
    at_s: Optional[float] = None  # absolute alternative to delay_s


@dataclass(frozen=True)
class StopTimer:
    key: str


@dataclass(frozen=True)
class OpenStream:
    dst: str


@dataclass(frozen=True)
class CloseStream:
    dst: str


@dataclass(frozen=True)
class Notify:
    kind: str
    detail: str = ""


Action = object


# -- events -----------------------------------------------------------------

@dataclass(frozen=True)
class Started:
    now_s: float


@dataclass(frozen=True)
class TimerFired:
    key: str
    now_s: float


@dataclass(frozen=True)
class MsgIn:
    msg: object
    src: str
    now_s: float


@dataclass(frozen=True)
class StreamUp:
    peer: str
    now_s: float


@dataclass(frozen=True)
class StreamDown:
    peer: str
    reason: str
    now_s: float


@dataclass(frozen=True)
class AppPublish:
    payload: bytes
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

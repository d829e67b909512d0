"""Deterministic discrete-event core: virtual tick clock, event queue, run loop."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable

# RTimer ticks per second on the modeled platform.
RTIMER_HZ = 32768

# Tick counts are plain non-negative ints; 32768 ticks equal one second.
TickTime = int


def seconds_to_ticks(seconds: float) -> TickTime:
    """Convert a duration in seconds to ticks, rounding sub-tick remainders up."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    ticks = seconds * RTIMER_HZ
    whole = int(ticks)
    return whole if whole == ticks else whole + 1


@dataclass(frozen=True)
class RunSummary:
    events_dispatched: int


class Engine:
    """Single-threaded event loop with a seeded RNG for all stochastic draws.

    The queue is a heap of (fire_at, seq, fn, args) tuples; seq is unique, so
    ties on fire_at dispatch in scheduling order and fn is never compared.
    Cancelling drops the id from the live set and the entry is skipped when
    it reaches the top of the heap.
    """

    def __init__(self, seed: int = 0):
        self.now: TickTime = 0
        self.rng = random.Random(seed)
        self._heap: list[tuple[TickTime, int, Callable, tuple]] = []
        self._next_seq = 1
        self._live: set[int] = set()

    def call_at(self, fire_at: TickTime, fn: Callable, *args: Any) -> int:
        """Schedule fn(*args) at tick fire_at; returns an id usable with cancel()."""
        if fire_at < self.now:
            raise ValueError(f"schedule at tick {fire_at} is in the past (now {self.now})")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, fn, args))
        self._live.add(seq)
        return seq

    def call_in(self, delay_ticks: TickTime, fn: Callable, *args: Any) -> int:
        return self.call_at(self.now + delay_ticks, fn, *args)

    def cancel(self, event_id: int) -> bool:
        """True iff the event existed and had not fired; cancelled events never run."""
        if event_id in self._live:
            self._live.remove(event_id)
            return True
        return False

    def run(self, until: TickTime) -> RunSummary:
        """Dispatch every event with fire_at <= until in (fire_at, seq) order."""
        if until < self.now:
            raise ValueError(f"run until tick {until} is in the past (now {self.now})")
        heap, live, pop = self._heap, self._live, heapq.heappop
        dispatched = 0
        while heap and heap[0][0] <= until:
            fire_at, seq, fn, args = pop(heap)
            if seq not in live:
                continue
            live.remove(seq)
            self.now = fire_at
            dispatched += 1
            fn(*args)
        self.now = until
        return RunSummary(dispatched)

"""Deterministic discrete-event core: virtual tick clock, event queue, run loop."""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable, NamedTuple

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


class RunSummary(NamedTuple):
    events_dispatched: int


class Mark:
    """A periodic point in the event order that dispatches nothing.

    It sorts among the queued events by (due, seq), as an event that
    reschedules itself every period would; `last` is the tick it last passed
    (-1 before the first), so `last == now` tells a callback whether the mark
    at the current tick sorts before it.
    """

    __slots__ = ("period", "due", "seq", "last")

    def __init__(self, period: int, due: TickTime, seq: int):
        self.period = period
        self.due = due
        self.seq = seq
        self.last: TickTime = -1


class Engine:
    """Single-threaded event loop with a seeded RNG for all stochastic draws.

    The queue is a heap of (fire_at, seq, fn, args) tuples; seq is unique, so
    ties on fire_at dispatch in scheduling order and fn is never compared.
    Cancelling drops the id from the live set and the entry is skipped when
    it reaches the top of the heap.

    Marks (see mark()) live next to the heap. Before an event dispatches,
    every mark whose (due, seq) sorts before the event's (fire_at, seq)
    passes; run(until) ends by passing every mark due at or before until.
    A pass sets last = due, adds the period to due and takes the next seq,
    exactly as a self-rescheduling event's call_at would, so every event
    keeps its id and its order. RunSummary.events_dispatched counts only
    events from the heap.
    """

    def __init__(self, seed: int = 0):
        self.now: TickTime = 0
        self.rng = random.Random(seed)
        self._heap: list[tuple[TickTime, int, Callable, tuple]] = []
        self._next_seq = 1
        self._live: set[int] = set()
        self._marks: list[Mark] = []
        self._mark_due: float = math.inf  # earliest due over the marks

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

    def drop_pending(self) -> None:
        """Forget every queued event; the marks stay. The queued callbacks are
        bound methods, so a finished run drops them to free their owners."""
        self._heap.clear()
        self._live.clear()

    def mark(self, period: int) -> Mark:
        """A mark first due now, after the events already queued for now.

        Calls one after another, with no seq taken in between, share the
        newest mark: nothing could sort between their marks.
        """
        marks = self._marks
        if marks:
            newest = marks[-1]
            if (newest.period == period and newest.due == self.now
                    and newest.seq == self._next_seq - 1):
                return newest
        mark = Mark(period, self.now, self._next_seq)
        self._next_seq += 1
        marks.append(mark)
        self._mark_due = min(self._mark_due, mark.due)
        return mark

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
            if fire_at >= self._mark_due:
                self._pass_marks(fire_at, seq)
            live.remove(seq)
            self.now = fire_at
            dispatched += 1
            fn(*args)
        if self._mark_due <= until:
            self._pass_marks(until + 1, 0)
        self.now = until
        return RunSummary(dispatched)

    def _pass_marks(self, fire_at: TickTime, seq: int) -> None:
        """Pass every mark that sorts before (fire_at, seq)."""
        marks = self._marks
        if len(marks) == 1:
            # A pass takes a seq above every queued one, so a lone mark passes
            # each of its ticks before fire_at, and fire_at itself only with
            # the seq it holds now: k passes, taking k consecutive seqs.
            mark = marks[0]
            due, period = mark.due, mark.period
            if due < fire_at:
                k = (fire_at - 1 - due) // period + 1
            elif due == fire_at and mark.seq < seq:
                k = 1
            else:
                return
            mark.last = due + (k - 1) * period
            mark.due = self._mark_due = due + k * period
            self._next_seq += k
            mark.seq = self._next_seq - 1
            return
        # Several marks pass one tick at a time, in (due, seq) order, so that
        # they take seqs in the order their events would have dispatched.
        while True:
            mark = min(marks, key=lambda m: (m.due, m.seq))
            if (mark.due, mark.seq) >= (fire_at, seq):
                break
            mark.last = mark.due
            mark.due += mark.period
            mark.seq = self._next_seq
            self._next_seq += 1
        self._mark_due = min(m.due for m in marks)

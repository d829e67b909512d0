"""Event engine: deterministic ordering, cancellation, marks, and clock conversion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motesim.engine import (
    RTIMER_HZ,
    Engine,
    seconds_to_ticks,
)


def test_rtimer_rate():
    assert RTIMER_HZ == 32768


def test_seconds_to_ticks_whole_seconds():
    assert seconds_to_ticks(1.0) == 32768
    assert seconds_to_ticks(0.5) == 16384
    assert seconds_to_ticks(10.0) == 327680
    assert seconds_to_ticks(0.0) == 0


def test_seconds_to_ticks_rounds_up():
    # partial ticks round up so timers never fire early
    assert seconds_to_ticks(1.0 / RTIMER_HZ) == 1
    assert seconds_to_ticks(1.5 / RTIMER_HZ) == 2
    assert seconds_to_ticks(0.1) == 3277  # 3276.8 exact


def test_seconds_to_ticks_rejects_negative():
    with pytest.raises(ValueError):
        seconds_to_ticks(-0.001)


def test_tick_second_round_trip():
    for ticks in (0, 1, 7, 32768, 327680):
        assert seconds_to_ticks(ticks / RTIMER_HZ) == ticks


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    for delay in (300, 100, 200):
        engine.call_at(delay, fired.append, delay)
    engine.run(1000)
    assert fired == [100, 200, 300]


def test_same_tick_events_fire_fifo():
    engine = Engine()
    fired = []
    for tag in range(5):
        engine.call_at(50, fired.append, tag)
    engine.run(100)
    assert fired == [0, 1, 2, 3, 4]


def test_clock_is_event_time_during_dispatch():
    engine = Engine()
    seen = []
    engine.call_at(123, lambda: seen.append(engine.now))
    engine.run(1000)
    assert seen == [123]
    assert engine.now == 1000


def test_run_dispatches_events_at_until_boundary():
    engine = Engine()
    fired = []
    engine.call_at(100, fired.append, "at")
    engine.call_at(101, fired.append, "after")
    summary = engine.run(100)
    assert fired == ["at"]
    assert summary.events_dispatched == 1
    assert engine.now == 100
    engine.run(101)
    assert fired == ["at", "after"]


def test_cancel_prevents_dispatch():
    engine = Engine()
    fired = []
    keep = engine.call_at(10, fired.append, "keep")
    drop = engine.call_at(10, fired.append, "drop")
    assert engine.cancel(drop) is True
    assert engine.cancel(drop) is False  # already cancelled
    engine.run(20)
    assert fired == ["keep"]
    assert engine.cancel(keep) is False  # already fired


def test_cancel_unknown_id_is_false():
    engine = Engine()
    assert engine.cancel(999) is False


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.call_at(10, lambda: None)
    engine.run(10)
    with pytest.raises(ValueError):
        engine.call_at(5, lambda: None)
    # scheduling exactly at the current tick is allowed
    engine.call_at(10, lambda: None)


def test_event_order_matches_sort_key_property():
    # random schedules must dispatch sorted by (time, insertion order)
    rng = random.Random(1234)
    for _ in range(50):
        engine = Engine()
        expected = []
        fired = []
        for seq in range(40):
            at = rng.randint(0, 500)
            expected.append((at, seq))
            engine.call_at(at, fired.append, (at, seq))
        expected.sort()
        engine.run(500)
        assert fired == expected


def test_rng_is_seed_deterministic():
    a = Engine(seed=99).rng.random()
    b = Engine(seed=99).rng.random()
    c = Engine(seed=100).rng.random()
    assert a == b
    assert a != c


def test_nested_scheduling_during_dispatch():
    engine = Engine()
    fired = []
    def chain(n):
        fired.append(n)
        if n < 3:
            engine.call_at(engine.now + 10, chain, n + 1)
    engine.call_at(0, chain, 0)
    engine.run(100)
    assert fired == [0, 1, 2, 3]
    assert engine.now == 100


# ---------------------------------------------------------------------------
# Marks: check rounds that sort among events but dispatch nothing


class CheckRound:
    """Reference: a check round as a heap event that reschedules itself."""

    def __init__(self, engine, period):
        self.engine = engine
        self.period = period
        self.last = -1
        self.due = engine.now
        self.event_id = engine.call_at(self.due, self._check_round)

    def _check_round(self):
        self.last = self.due
        self.due += self.period
        self.event_id = self.engine.call_at(self.due, self._check_round)


class ReferenceEngine(Engine):
    """Engine whose mark() makes a CheckRound event, shared by back-to-back calls."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.newest = None
        self.last_id = 0

    def call_at(self, fire_at, fn, *args):
        self.last_id = super().call_at(fire_at, fn, *args)
        return self.last_id

    def mark(self, period):
        newest = self.newest
        if (newest is None or newest.period != period or newest.due != self.now
                or newest.event_id != self.last_id):
            self.newest = newest = CheckRound(self, period)
        return newest


def play(engine, program):
    """Run a schedule program; return everything a callback could observe.

    program = (initial, specs, untils): initial lists spec indices scheduled
    before the first run, each spec is (delay, periods, children, cancel),
    and untils are the ends of successive run() calls.
    """
    initial, specs, untils = program
    rounds, ids, seen = [], {}, []

    def make_rounds(periods):
        for period in periods:
            made = engine.mark(period)
            seen.append(("round", next((i for i, r in enumerate(rounds) if r is made), None)))
            rounds.append(made)

    def schedule(index):
        ids[index] = engine.call_at(engine.now + specs[index][0], fire, index)
        seen.append(("id", index, ids[index]))

    def fire(index):
        _, periods, children, cancel = specs[index]
        seen.append(("fire", index, engine.now, [r.last for r in rounds]))
        make_rounds(periods)
        for child in children:
            schedule(child)
        if cancel in ids:
            seen.append(("cancel", cancel, engine.cancel(ids[cancel])))

    make_rounds(specs[0][1])
    for index in initial:
        schedule(index)
    for until in untils:
        engine.run(until)
        seen.append(("run", until, [r.last for r in rounds]))
        make_rounds(specs[until % len(specs)][1])  # rounds created between runs
    return seen


@st.composite
def programs(draw):
    count = draw(st.integers(1, 10))
    specs = []
    for index in range(count):
        later = st.integers(index + 1, count - 1)
        specs.append((
            draw(st.integers(0, 14)),
            draw(st.lists(st.sampled_from((4, 6)), max_size=2)),
            draw(st.lists(later, max_size=2, unique=True)) if index + 1 < count else [],
            draw(st.none() | st.integers(0, count - 1)),
        ))
    initial = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3, unique=True))
    steps = draw(st.lists(st.integers(0, 13), min_size=1, max_size=4))
    untils = list(itertools.accumulate(steps))
    return initial, specs, untils


@settings(derandomize=True, deadline=None, max_examples=100)
@given(programs())
def test_marks_match_self_rescheduling_round_events(program):
    assert play(Engine(), program) == play(ReferenceEngine(), program)


def test_mark_sorts_after_events_queued_before_it():
    engine = Engine()
    seen = []
    engine.call_at(0, lambda: seen.append(("before", engine.now, mark.last)))
    mark = engine.mark(8)

    def after():
        seen.append(("after", engine.now, mark.last))
        engine.call_at(8, lambda: seen.append(("scheduled after the pass", engine.now, mark.last)))

    engine.call_at(0, after)
    engine.call_at(8, lambda: seen.append(("scheduled before the pass", engine.now, mark.last)))
    summary = engine.run(8)
    assert seen == [("before", 0, -1), ("after", 0, 0),
                    ("scheduled before the pass", 8, 0), ("scheduled after the pass", 8, 8)]
    assert summary.events_dispatched == 4  # passes are not events


def test_back_to_back_marks_are_shared():
    engine = Engine()
    first = engine.mark(4)
    assert engine.mark(4) is first
    engine.call_at(1, lambda: None)
    second = engine.mark(4)
    assert second is not first  # a seq was taken in between
    assert engine.mark(4) is second
    assert engine.mark(6) is not second  # another period


def test_run_until_a_mark_tick_passes_it():
    engine = Engine()
    mark = engine.mark(4)
    engine.run(7)
    assert mark.last == 4
    engine.run(8)
    assert mark.last == 8


def test_marks_on_a_shared_tick_take_seqs_in_pass_order():
    engine = Engine()
    m4 = engine.mark(4)  # seq 1
    assert engine.call_at(100, lambda: None) == 2
    m6 = engine.mark(6)  # seq 3
    engine.run(12)
    # (0,1)(0,3)(4,4)(6,5)(8,6) pass taking seqs 4..8; at tick 12, m6 holds
    # seq 7 and m4 seq 8, so m6 passes first (seq 9), then m4 (seq 10).
    assert (m4.last, m6.last) == (12, 12)
    assert (m6.seq, m4.seq) == (9, 10)
    assert engine.call_at(12, lambda: None) == 11

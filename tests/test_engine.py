"""Event engine: deterministic ordering, cancellation, and clock conversion."""

import random

import pytest

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


def test_call_in_is_relative_to_now():
    engine = Engine()
    fired = []
    engine.call_at(100, lambda: engine.call_in(50, fired.append, "x"))
    engine.run(149)
    assert fired == []
    engine.run(150)
    assert fired == ["x"]


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
            engine.call_in(10, chain, n + 1)
    engine.call_at(0, chain, 0)
    engine.run(100)
    assert fired == [0, 1, 2, 3]
    assert engine.now == 100

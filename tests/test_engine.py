"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.simnet.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_at(2.0, fired.append, "b")
    engine.schedule_at(1.0, fired.append, "a")
    engine.schedule_at(3.0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for label in ("first", "second", "third"):
        engine.schedule_at(1.0, fired.append, label)
    engine.run()
    assert fired == ["first", "second", "third"]


def test_schedule_after_uses_relative_delay():
    engine = Engine()
    seen = []
    engine.schedule_after(0.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [0.5]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule_at(1.0, lambda: None)
    engine.run()
    with pytest.raises(SchedulingError):
        engine.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(SchedulingError):
        engine.schedule_after(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule_at(1.0, fired.append, "x")
    event.cancel()
    engine.run()
    assert fired == []
    assert not event.pending


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule_at(1.0, fired.append, "early")
    engine.schedule_at(5.0, fired.append, "late")
    engine.run(until=2.0)
    assert fired == ["early"]
    assert engine.now == 2.0
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=7.5)
    assert engine.now == 7.5


def test_events_scheduled_during_execution_run_in_order():
    engine = Engine()
    fired = []

    def outer():
        fired.append("outer")
        engine.schedule_after(1.0, lambda: fired.append("inner"))

    engine.schedule_at(1.0, outer)
    engine.run()
    assert fired == ["outer", "inner"]
    assert engine.now == 2.0


def test_call_soon_runs_at_current_time():
    engine = Engine()
    times = []
    engine.schedule_at(3.0, lambda: engine.call_soon(lambda: times.append(engine.now)))
    engine.run()
    assert times == [3.0]


def test_stop_halts_run():
    engine = Engine()
    fired = []
    engine.schedule_at(1.0, lambda: (fired.append("a"), engine.stop()))
    engine.schedule_at(2.0, fired.append, "b")
    engine.run()
    assert fired[0][0] == "a" if isinstance(fired[0], tuple) else fired == ["a"]
    assert engine.pending_events == 1


def test_max_events_limit():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.schedule_at(float(i + 1), fired.append, i)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_periodic_task_fires_until_cancelled():
    engine = Engine()
    ticks = []
    task = engine.schedule_every(1.0, lambda: ticks.append(engine.now))
    engine.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    task.cancel()
    engine.schedule_at(10.0, lambda: None)  # keep the clock moving
    engine.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    assert task.fire_count == 4


def test_periodic_task_custom_start():
    engine = Engine()
    ticks = []
    engine.schedule_every(2.0, lambda: ticks.append(engine.now), start_after=0.5)
    engine.run(until=5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_periodic_task_rejects_nonpositive_interval():
    engine = Engine()
    with pytest.raises(SchedulingError):
        engine.schedule_every(0.0, lambda: None)


def test_drain_fires_everything():
    engine = Engine()
    fired = []
    for i in range(4):
        engine.schedule_at(float(i), fired.append, i)
    count = engine.drain()
    assert count == 4
    assert fired == [0, 1, 2, 3]


def test_events_processed_counter():
    engine = Engine()
    for i in range(3):
        engine.schedule_at(float(i + 1), lambda: None)
    engine.run()
    assert engine.events_processed == 3


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
def test_events_always_fire_in_nondecreasing_time_order(times):
    """Property: whatever the scheduling order, firing order is by time."""
    engine = Engine()
    observed = []
    for t in times:
        engine.schedule_at(t, lambda t=t: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)


def test_pending_events_counts_only_live_events():
    engine = Engine()
    events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(10)]
    assert engine.pending_events == 10
    for event in events[:4]:
        event.cancel()
    assert engine.pending_events == 6
    # Double-cancel does not double-count.
    events[0].cancel()
    assert engine.pending_events == 6
    engine.run()
    assert engine.pending_events == 0
    assert engine.events_processed == 6


def test_heap_compacts_when_mostly_cancelled():
    engine = Engine()
    keep = 10
    total = max(engine.COMPACT_MIN_QUEUE * 2, 200)
    events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(total)]
    for event in events[keep:]:
        event.cancel()
    # The queue was rebuilt without the cancelled majority: below the
    # compaction threshold rather than still holding all `total` entries.
    assert len(engine._queue) < engine.COMPACT_MIN_QUEUE
    assert engine.pending_events == keep
    fired = engine.drain()
    assert fired == keep


def test_compaction_preserves_firing_order():
    engine = Engine()
    observed = []
    total = 256
    events = [
        engine.schedule_at(float(i + 1), observed.append, i) for i in range(total)
    ]
    survivors = [i for i in range(total) if i % 3 == 0]
    for index, event in enumerate(events):
        if index % 3 != 0:
            event.cancel()
    engine.run()
    assert observed == survivors


# ---------------------------------------------------------------------------
# Reserved sequence numbers and the work counters
# ---------------------------------------------------------------------------


def test_event_at_a_reserved_key_fires_where_schedule_at_would_have():
    engine = Engine()
    fired = []
    engine.schedule_at(1.0, fired.append, "before")
    seq = engine.reserve_seqs()
    engine.schedule_at(1.0, fired.append, "after")
    # Pushed last, but ordered by the key reserved between the other two.
    engine.schedule_at_seq(1.0, seq, fired.append, "reserved")
    engine.run()
    assert fired == ["before", "reserved", "after"]


def test_reserve_seqs_hands_out_a_consecutive_block():
    engine = Engine()
    first = engine.reserve_seqs(3)
    fired = []
    for offset in (2, 0, 1):
        engine.schedule_at_seq(0.5, first + offset, fired.append, offset)
    engine.schedule_at(0.5, fired.append, "later")
    engine.run()
    assert fired == [0, 1, 2, "later"]


def test_schedule_at_seq_rejects_unreserved_keys_and_the_past():
    engine = Engine()
    with pytest.raises(SchedulingError):
        engine.schedule_at_seq(1.0, 0, lambda: None)
    seq = engine.reserve_seqs()
    engine.schedule_at(2.0, lambda: None)
    engine.run()
    with pytest.raises(SchedulingError):
        engine.schedule_at_seq(1.0, seq, lambda: None)


def test_work_counters_count_pushes_and_cancellations_not_reservations():
    engine = Engine()
    events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(4)]
    engine.schedule_after(0.5, lambda: None)
    engine.reserve_seqs(10)
    events[0].cancel()
    events[0].cancel()  # a second cancel is not a second cancellation
    assert engine.events_scheduled == 5
    assert engine.events_cancelled == 1
    engine.run()
    events[1].cancel()  # already fired: not a cancellation
    assert engine.events_processed == 4
    assert engine.events_cancelled == 1

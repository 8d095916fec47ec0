"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the boundary
    # Assert on the queue, not on timing side effects: exactly the late
    # event is still pending, at exactly its scheduled time.
    assert sim.pending() == 1
    assert sim.peek_time() == 5.0
    sim.run()
    assert fired == ["early", "late"]
    assert sim.pending() == 0
    assert sim.peek_time() is None


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, handle.cancel)
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.schedule(float(index), fired.append, index)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_event_budget_does_not_jump_the_clock_past_queued_events():
    # run(until=T, max_events=N) stopped by the budget used to set the
    # clock to T with earlier events still queued: the next run moved
    # ``now`` backwards and schedule_at rejected valid times.
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.schedule_at(index / 10, fired.append, index)
    assert sim.run(until=5.0, max_events=3) == 0.2
    assert fired == [0, 1, 2]
    assert sim.peek_time() == 0.3
    sim.schedule_at(0.25, fired.append, "between")
    assert sim.run(until=5.0, max_events=8) == 5.0  # drained: now jump
    assert fired == [0, 1, 2, "between", 3, 4, 5, 6, 7, 8, 9]
    assert sim.now == 5.0


def test_run_until_jumps_over_a_cancelled_head():
    # Only live events hold the clock back.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b").cancel()
    sim.schedule(9.0, fired.append, "c")
    assert sim.run(until=5.0, max_events=1) == 5.0
    assert fired == ["a"]
    assert sim.peek_time() == 9.0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_time() == 2.0


def test_pending_counts_live_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    handle.cancel()
    assert sim.pending() == 1


def test_stepped_runs_observe_queue_draining():
    """Advancing in fixed steps must never skip or re-run work: the
    pending count and next-event time fully describe progress, so the
    test asserts on those instead of sleeping toward a deadline."""
    sim = Simulator()
    fired = []
    times = [0.4, 1.2, 2.7, 3.1]
    for time in times:
        sim.schedule_at(time, fired.append, time)
    step = 1.0
    while sim.pending():
        next_time = sim.peek_time()
        sim.run(until=sim.now + step)
        # Everything scheduled inside the window fired, nothing beyond.
        assert all(t <= sim.now for t in fired)
        remaining = [t for t in times if t > sim.now]
        assert sim.pending() == len(remaining)
        assert sim.peek_time() == (min(remaining) if remaining else None)
        assert next_time is not None
    assert fired == times


def test_max_events_leaves_remainder_pending():
    sim = Simulator()
    fired = []
    for index in range(6):
        sim.schedule(float(index), fired.append, index)
    sim.run(max_events=2)
    assert fired == [0, 1]
    assert sim.pending() == 4
    assert sim.peek_time() == 2.0  # resumable exactly where it stopped
    sim.run()
    assert fired == list(range(6))


def test_callback_scheduling_updates_peek_and_pending():
    sim = Simulator()
    observed = []

    def first():
        sim.schedule(2.0, observed.append, "second")
        observed.append((sim.pending(), sim.peek_time()))

    sim.schedule(1.0, first)
    assert sim.peek_time() == 1.0
    sim.run()
    # Inside the callback the newly scheduled event was already visible.
    assert observed == [(1, 3.0), "second"]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_execution_order_is_sorted_property(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    assert sim.pending() == len(delays)
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.pending() == 0 and sim.peek_time() is None


def test_peek_pending_churn_invariant():
    """peek_time() lazily pops cancelled heap entries; pending() is a
    live counter the cancel already decremented.  Interleaving
    schedule / cancel / peek in every order must keep pending() exact
    and peek_time() pointing at the earliest *live* event."""
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
    assert sim.pending() == 8

    # Cancel the head twice over: peek must skip past both, the counter
    # must not double-decrement.
    handles[0].cancel()
    handles[0].cancel()  # idempotent
    handles[1].cancel()
    assert sim.pending() == 6
    assert sim.peek_time() == 3.0  # lazily popped the two cancelled heads
    assert sim.pending() == 6      # ...without touching the counter

    # Schedule an earlier event after the peek compacted the head.
    sim.schedule(0.5, lambda: None)
    assert sim.peek_time() == 0.5
    assert sim.pending() == 7

    # Cancel a non-head entry: the heap still holds it, peek is unmoved.
    handles[5].cancel()
    assert sim.pending() == 6
    assert sim.peek_time() == 0.5

    # Churn: alternate cancels and peeks down to one live event.
    for handle in handles[2:5] + handles[6:]:
        before = sim.pending()
        handle.cancel()
        assert sim.pending() == before - 1
        sim.peek_time()
    assert sim.pending() == 1
    assert sim.peek_time() == 0.5
    sim.run()
    assert sim.pending() == 0 and sim.peek_time() is None


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100.0,
                                    allow_nan=False),
                          st.booleans(), st.booleans()), max_size=40))
def test_peek_pending_churn_property(ops):
    """Property form: after any schedule/cancel/peek interleaving the
    counter equals the number of live handles."""
    sim = Simulator()
    live = []
    for delay, do_cancel, do_peek in ops:
        handle = sim.schedule(delay, lambda: None)
        live.append(handle)
        if do_cancel:
            victim = live.pop(len(live) // 2)
            victim.cancel()
        if do_peek:
            expected = min((h.time for h in live), default=None)
            assert sim.peek_time() == expected
        assert sim.pending() == len(live)


# ---------------------------------------------------------------------------
# schedule_fast contract guard
# ---------------------------------------------------------------------------


def test_schedule_fast_returns_no_handle():
    sim = Simulator()
    assert sim.schedule_fast(1.0, lambda: None) is None


def test_schedule_fast_cannot_be_cancelled():
    # Fast events expose no handle — there is nothing to cancel.  Even
    # heavy cancel churn on surrounding handle-carrying events must
    # leave every fast event counted, peekable, and fired.
    sim = Simulator()
    fired = []
    sim.schedule_fast(1.0, fired.append, "x")
    victims = [sim.schedule(0.5 + i * 0.01, fired.append, f"v{i}") for i in range(20)]
    assert sim.pending() == 21
    for victim in victims:
        victim.cancel()
    assert sim.pending() == 1, "cancel churn leaked into the fast event count"
    assert sim.peek_time() == 1.0
    sim.run()
    assert fired == ["x"]


def test_schedule_fast_visible_to_pending_and_peek():
    sim = Simulator()
    sim.schedule_fast(2.0, lambda: None)
    handle = sim.schedule(1.0, lambda: None)
    assert sim.pending() == 2
    assert sim.peek_time() == 1.0
    handle.cancel()
    # peek skips the cancelled handle-carrying event but must still
    # see the fast event behind it.
    assert sim.peek_time() == 2.0
    assert sim.pending() == 1


def test_schedule_fast_interleaves_in_time_seq_order():
    # Fast and handle-carrying events at equal times fire in exact
    # scheduling (seq) order: the fast path buys no reordering.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "slow-a")
    sim.schedule_fast(1.0, fired.append, "fast-b")
    sim.schedule(1.0, fired.append, "slow-c")
    sim.schedule_fast(0.5, fired.append, "fast-first")
    sim.run()
    assert fired == ["fast-first", "slow-a", "fast-b", "slow-c"]


def test_schedule_fast_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_fast(-0.1, lambda: None)


def test_schedule_fast_far_future():
    # A timer-scale delay next to datapath-scale ones honours the same
    # ordering and visibility contract (the PR 8 wheel kept such events
    # in a separate lane).
    sim = Simulator()
    fired = []
    sim.schedule_fast(0.256, fired.append, "far")
    sim.schedule_fast(0.0128, fired.append, "near")
    sim.schedule(1e-6, fired.append, "next")
    assert sim.pending() == 3
    assert sim.peek_time() == 1e-6
    sim.run(until=0.1)
    assert fired == ["next", "near"]
    assert sim.pending() == 1
    assert sim.peek_time() == 0.256
    sim.run()
    assert fired == ["next", "near", "far"]
    assert sim.now == 0.256


def test_compaction_from_inside_a_callback_loses_and_reorders_nothing():
    # Enough cancels from a callback to make the engine drop its dead
    # entries while run() is draining the queue: everything still
    # queued, and everything scheduled afterwards, fires once, in order.
    sim = Simulator()
    fired = []
    timers = [sim.schedule(5.0 + i, fired.append, "timer") for i in range(300)]

    def cancel_timers():
        fired.append("cancel")
        for timer in timers:
            timer.cancel()
        sim.schedule_fast(0.0, fired.append, "same-instant")
        sim.schedule(0.5, fired.append, "later")

    sim.schedule(1.0, fired.append, "before")
    sim.schedule(1.0, cancel_timers)
    sim.schedule(1.0, fired.append, "tie")
    for index in range(10):
        sim.schedule_fast(2.0 + index, fired.append, index)
    sim.run()
    assert fired == ["before", "cancel", "tie", "same-instant", "later", *range(10)]
    assert sim.pending() == 0 and sim.peek_time() is None
    assert sim.events_processed == 15


def test_cancelled_timers_do_not_accumulate():
    # Bulk TCP re-arms its RTO on every ACK and cancels it long before
    # the deadline; the queue must stay proportional to what is live,
    # whether the live side shrinks by cancelling or by firing.
    sim = Simulator()
    state = {"timer": sim.schedule(0.2, lambda: None)}
    deepest = 0

    def segment(remaining):
        nonlocal deepest
        state["timer"].cancel()
        state["timer"] = sim.schedule(0.2, lambda: None)
        deepest = max(deepest, len(sim._heap))
        if remaining:
            sim.schedule_fast(1e-5, segment, remaining - 1)

    sim.schedule_fast(0.0, segment, 5000)
    sim.run(until=0.1)
    assert sim.pending() == 1
    assert deepest <= 2 * 2 + 64 + 1  # two live while the callback runs

    for _ in range(100):
        sim.schedule(1.0, lambda: None)
    sim.schedule(3.0, lambda: None)  # keeps the dead ones off the head
    for handle in [sim.schedule(9.0, lambda: None) for _ in range(90)]:
        handle.cancel()  # fewer dead than live: nothing to do yet
    sim.run(until=2.0)  # ... until the live ones have fired
    assert sim.pending() == 1
    assert len(sim._heap) <= 2 * 1 + 64


def test_timer_fires_on_time_through_a_dense_stretch():
    # The PR 8 wheel moved far-future events into its window only when
    # it met an empty tick: with a datapath event in every 100 us tick
    # for a whole 25.6 ms revolution, a timer due inside the stretch
    # fired after it, and the clock ran backwards (a perfbench
    # border_lossy_wan run lost an RTO that way).
    sim = Simulator()
    seen = []

    def tick(remaining):
        seen.append(sim.now)
        if remaining:
            sim.schedule_fast(5e-5, tick, remaining - 1)

    sim.schedule_fast(0.0, tick, 1200)  # 60 ms, two events per tick
    sim.schedule(0.030, seen.append, "timer")
    sim.run()
    at = seen.index("timer")
    assert at < len(seen) - 1, "the timer fired after everything else"
    assert seen[at - 1] <= 0.030 <= seen[at + 1]
    clock = [entry for entry in seen if entry != "timer"]
    assert clock == sorted(clock)
    assert sim.now == clock[-1]

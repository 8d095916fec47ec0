"""Simulator.pending() is an O(1) counter — assert it never drifts.

The counter is maintained at schedule, cancel, and fire time.  Under
cancel churn (including cancel-after-fire and double-cancel) it must
agree at every step with a ledger the test keeps itself: every event
scheduled, minus those cancelled while still queued, minus those that
have fired.
"""

import itertools
import random

from repro.sim import Simulator


class _Ledger:
    """Ground truth for ``pending()``, kept outside the engine.

    Each event's callback strikes its own token, so a token is in
    ``live`` exactly while the event is queued and not cancelled.
    """

    def __init__(self, sim):
        self.sim = sim
        self.live = set()
        self._tokens = itertools.count()

    def schedule(self, delay):
        token = next(self._tokens)
        self.live.add(token)
        return token, self.sim.schedule(delay, self.live.discard, token)

    def schedule_fast(self, delay):
        token = next(self._tokens)
        self.live.add(token)
        self.sim.schedule_fast(delay, self.live.discard, token)

    def cancel(self, token, handle):
        handle.cancel()
        self.live.discard(token)  # already gone if the event fired first

    def agrees(self):
        return self.sim.pending() == len(self.live)


def test_pending_counts_scheduled_events():
    sim = Simulator()
    ledger = _Ledger(sim)
    events = [ledger.schedule(i * 0.1) for i in range(1, 6)]
    assert sim.pending() == 5 and ledger.agrees()
    ledger.cancel(*events[0])
    assert sim.pending() == 4 and ledger.agrees()


def test_double_cancel_decrements_once():
    sim = Simulator()
    ledger = _Ledger(sim)
    event = ledger.schedule(1.0)
    ledger.schedule(2.0)
    ledger.cancel(*event)
    ledger.cancel(*event)
    assert sim.pending() == 1 and ledger.agrees()


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    ledger = _Ledger(sim)
    event = ledger.schedule(1.0)
    ledger.schedule(2.0)
    sim.run(until=1.5)
    assert sim.pending() == 1
    ledger.cancel(*event)  # already fired: must not decrement
    assert sim.pending() == 1 and ledger.agrees()
    sim.run()
    assert sim.pending() == 0 and ledger.agrees()


def test_schedule_fast_events_count_and_drain():
    sim = Simulator()
    ledger = _Ledger(sim)
    for i in range(4):
        ledger.schedule_fast(0.1 * (i + 1))
    assert sim.pending() == 4 and ledger.agrees()
    sim.run(until=0.25)
    assert ledger.live == {2, 3}  # tokens of the 0.3 s and 0.4 s events
    assert sim.pending() == 2 and ledger.agrees()
    sim.run()
    assert sim.pending() == 0 and ledger.agrees()


def test_pending_under_random_churn():
    rng = random.Random(4242)
    sim = Simulator()
    ledger = _Ledger(sim)
    events = []
    for step in range(400):
        action = rng.random()
        if action < 0.5 or not events:
            events.append(ledger.schedule(rng.uniform(0.0, 10.0)))
        elif action < 0.75:
            victim = events.pop(rng.randrange(len(events)))
            ledger.cancel(*victim)
            if rng.random() < 0.3:
                ledger.cancel(*victim)  # double-cancel must stay a no-op
        else:
            ledger.schedule_fast(rng.uniform(0.0, 10.0))
        assert ledger.agrees(), f"drift at step {step}"
        if step % 50 == 49:
            # Fire part of the queue, so later cancels hit fired events.
            sim.run(until=sim.now + 1.0)
            assert ledger.agrees(), f"drift after run at step {step}"
    sim.run()
    assert sim.pending() == 0 and ledger.agrees()


def test_pending_drains_during_run():
    sim = Simulator()
    observed = []

    def probe():
        observed.append(sim.pending())

    for i in range(5):
        sim.schedule(float(i + 1), probe)
    sim.run()
    # Each firing removes itself before the callback runs.
    assert observed == [4, 3, 2, 1, 0]

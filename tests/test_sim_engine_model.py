"""The event engine against a sorted-list reference model.

``Simulator`` keeps a binary heap with lazily deleted, periodically
compacted cancelled entries; the model keeps a plain list of live
events, sorted by (time, scheduling order), and removes a cancelled
event on the spot.  A Hypothesis state machine drives both through the
same schedule / cancel / run calls — including cancels and schedules
made from inside callbacks — and requires the same firing order, the
same clock, and the same ``pending()`` and ``peek_time()`` after every
step, plus the engine's own bound on the garbage it holds.
"""

import bisect

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import Simulator

# Quarter-second grid: exactly representable, so sums never round and
# same-time ties are common.
_DELAYS = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
_KINDS = st.sampled_from(["schedule", "schedule_at", "schedule_fast"])


class _Model:
    """Obviously-correct engine: a sorted list of live events."""

    def __init__(self):
        self.now = 0.0
        self.queue = []  # (time, order, ident), live events only
        self.order = 0
        self.log = []

    def insert(self, time, ident):
        bisect.insort(self.queue, (time, self.order, ident))
        self.order += 1

    def cancel(self, ident):
        self.queue = [event for event in self.queue if event[2] != ident]

    def run(self, until, max_events, on_fire):
        executed = 0
        while self.queue and executed != max_events:
            time, _order, ident = self.queue[0]
            if until is not None and time > until:
                break
            del self.queue[0]
            self.now = time
            self.log.append((ident, time))
            on_fire(ident)
            executed += 1
        if until is not None and self.now < until:
            if not self.queue or self.queue[0][0] > until:
                self.now = until


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.model = _Model()
        self.real_log = []
        self.handles = {}  # ident -> EventHandle (cancellable kinds only)
        self.scripts = {}  # ident -> what the event does when it fires
        self.idents = 0

    # -- the two sides of one operation --------------------------------
    def _new_ident(self):
        self.idents += 1
        return self.idents

    def _real_schedule(self, kind, delay, ident):
        sim = self.sim
        if kind == "schedule":
            self.handles[ident] = sim.schedule(delay, self._real_fire, ident)
        elif kind == "schedule_at":
            self.handles[ident] = sim.schedule_at(sim.now + delay, self._real_fire, ident)
        else:
            assert sim.schedule_fast(delay, self._real_fire, ident) is None

    def _schedule(self, kind, delay, ident):
        self._real_schedule(kind, delay, ident)
        self.model.insert(self.model.now + delay, ident)

    def _real_fire(self, ident):
        self.real_log.append((ident, self.sim.now))
        script = self.scripts.get(ident)
        if script is None:
            return
        if script[0] == "spawn":
            _, kind, delay, child = script
            self._real_schedule(kind, delay, child)
        else:
            handle = self.handles.get(script[1])
            if handle is not None:
                handle.cancel()

    def _model_fire(self, ident):
        script = self.scripts.get(ident)
        if script is None:
            return
        if script[0] == "spawn":
            _, _kind, delay, child = script
            self.model.insert(self.model.now + delay, child)
        elif script[1] in self.handles:
            self.model.cancel(script[1])

    def _run(self, until, max_events):
        reached = self.sim.run(until=until, max_events=max_events)
        self.model.run(until, max_events, self._model_fire)
        assert reached == self.sim.now

    # -- rules -----------------------------------------------------------
    @rule(kind=_KINDS, delay=_DELAYS)
    def schedule(self, kind, delay):
        self._schedule(kind, delay, self._new_ident())

    @rule(kind=_KINDS, delay=_DELAYS, child_kind=_KINDS, child_delay=_DELAYS)
    def schedule_spawner(self, kind, delay, child_kind, child_delay):
        """An event that schedules another from inside its callback —
        with ``child_delay`` 0, into the instant being drained."""
        ident, child = self._new_ident(), self._new_ident()
        self.scripts[ident] = ("spawn", child_kind, child_delay, child)
        self._schedule(kind, delay, ident)

    @rule(kind=_KINDS, delay=_DELAYS, back=st.integers(min_value=0, max_value=30))
    def schedule_canceller(self, kind, delay, back):
        """An event whose callback cancels another: pending, already
        cancelled, already fired, or (``back`` 0) itself."""
        ident = self._new_ident()
        self.scripts[ident] = ("cancel", max(1, ident - back))
        self._schedule(kind, delay, ident)

    @rule(earlier=st.integers(min_value=1, max_value=8))
    def schedule_at_past_is_rejected(self, earlier):
        past = self.sim.now - earlier * 0.25
        with pytest.raises(ValueError):
            self.sim.schedule_at(past, self._real_fire, -1)
        for call in (self.sim.schedule, self.sim.schedule_fast):
            with pytest.raises(ValueError):
                call(-earlier * 0.25, self._real_fire, -1)

    @rule(back=st.integers(min_value=0, max_value=30), twice=st.booleans())
    def cancel(self, back, twice):
        target = self.idents - back
        handle = self.handles.get(target)
        if handle is None:
            return
        for _ in range(1 + twice):
            handle.cancel()
        self.model.cancel(target)

    @rule(count=st.integers(min_value=65, max_value=200), delay=_DELAYS,
          far=_DELAYS, keep_every=st.integers(min_value=2, max_value=50))
    def timer_churn(self, count, delay, far, keep_every):
        """What bulk TCP does: arm many timers *far* beyond the data
        events and cancel them long before they are due."""
        doomed = []
        for index in range(count):
            ident = self._new_ident()
            keep = index % keep_every == 0
            self._schedule("schedule", delay if keep else delay + far, ident)
            if not keep:
                doomed.append(ident)
        for ident in doomed:
            self.handles[ident].cancel()
            self.model.cancel(ident)

    @rule(ahead=_DELAYS)
    def run_until(self, ahead):
        self._run(self.sim.now + ahead, None)

    @rule(budget=st.integers(min_value=0, max_value=20))
    def run_max_events(self, budget):
        self._run(None, budget)

    @rule(ahead=_DELAYS, budget=st.integers(min_value=0, max_value=20))
    def run_until_and_max_events(self, ahead, budget):
        self._run(self.sim.now + ahead, budget)

    @rule()
    def run_to_completion(self):
        self._run(None, None)
        assert self.sim.pending() == 0

    # -- what must hold after every step ---------------------------------
    @invariant()
    def agrees_with_model(self):
        sim, model = self.sim, self.model
        assert self.real_log == model.log
        assert sim.now == model.now
        assert sim.pending() == len(model.queue)
        assert sim.events_processed == len(model.log)
        # The bound is checked before peek_time(), which may pop dead
        # heads and so could hide a breach.
        assert len(sim._heap) <= 2 * sim.pending() + 64
        assert sim._dead == len(sim._heap) - sim.pending()
        assert sim.peek_time() == (model.queue[0][0] if model.queue else None)
        assert sim.pending() == len(model.queue)


TestEngineAgainstModel = EngineMachine.TestCase
TestEngineAgainstModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)

"""The lazy retransmission timer against the eager one it replaced.

``TCPConnection`` keeps one live engine entry for its RTO and moves a
stored deadline when it re-arms; the entry re-pushes itself when it
fires before the deadline.  The model is the timer the connection had
before — cancel the old entry, schedule a new one, on every arm — on a
simulator of its own.  A Hypothesis state machine drives both through
the same arm / cancel / RTO change / time advance steps and requires
the same fire times, the same ``timeouts`` and ``rto``, at most one live
RTO entry after every step, and an empty event queue whenever nothing is
in flight (so no timer entry can outlive a transfer and move the time at
which a simulation drains).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.net.host import Host
from repro.packet import str_to_ip
from repro.sim import Simulator
from repro.tcpstack import TCPConnection

_RTOS = st.floats(min_value=TCPConnection.MIN_RTO, max_value=TCPConnection.MAX_RTO,
                  allow_nan=False)
_STEPS = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


class _EagerTimer:
    """The three-line timer: every arm is a cancel and a fresh entry."""

    def __init__(self):
        self.sim = Simulator()
        self.rto = TCPConnection.INITIAL_RTO
        self.handle = None
        self.in_flight = False
        self.timeouts = 0
        self.fired = []

    def arm(self):
        self.cancel()
        self.handle = self.sim.schedule(self.rto, self.on_rto)

    def cancel(self):
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def on_rto(self):
        # What TCPConnection._on_rto does to the timer: count, back off,
        # and (through the head retransmission) re-arm while data is out.
        self.handle = None
        self.timeouts += 1
        self.fired.append(self.sim.now)
        self.rto = min(TCPConnection.MAX_RTO, self.rto * 2)
        if self.in_flight:
            self.arm()


class _Probe(TCPConnection):
    """A connection that logs when its retransmission timer really fires.

    Its host has no route, so retransmitted heads go nowhere and only
    the timer logic runs.
    """

    def __init__(self):
        host = Host(Simulator(), "sender")
        host.add_interface(str_to_ip("10.0.0.1"))
        super().__init__(host, 40000, str_to_ip("10.0.0.2"), 80, pmtud=False)
        self.fired = []

    def _on_rto(self):
        self.fired.append(self.sim.now)
        super()._on_rto()


def _live_entries(sim):
    return sum(1 for entry in sim._heap if entry[2] is not None and not entry[2].cancelled)


class RtoTimerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.conn = _Probe()
        self.model = _EagerTimer()

    def _in_flight(self):
        return self.conn.snd_nxt != self.conn.snd_una

    # -- rules -----------------------------------------------------------
    @rule(nbytes=st.integers(min_value=1, max_value=100_000))
    def send(self, nbytes):
        """New data leaves: arm only if the timer is off (``_pump``)."""
        conn = self.conn
        conn.snd_nxt = (conn.snd_nxt + nbytes) & 0xFFFFFFFF
        self.model.in_flight = True
        if conn._rto_handle is None:
            conn._arm_rto()
        if self.model.handle is None:
            self.model.arm()

    @precondition(lambda self: self._in_flight())
    @rule(rto=st.one_of(st.none(), _RTOS))
    def partial_ack(self, rto):
        """An advancing ACK with data still out re-arms; an RTT sample
        may first grow or shrink the RTO (the shrink is what forces the
        lazy timer to re-push early)."""
        if rto is not None:
            self.conn.rto = self.model.rto = rto
        self.conn._arm_rto()
        self.model.arm()

    @precondition(lambda self: self._in_flight())
    @rule()
    def full_ack(self):
        """Flight drains to zero: the cancel is real, the RTO relaxes."""
        conn, model = self.conn, self.model
        conn.snd_una = conn.snd_nxt
        model.in_flight = False
        conn._cancel_rto()
        model.cancel()
        conn.rto = model.rto = max(TCPConnection.MIN_RTO, conn.rto / 2)

    @rule(step=_STEPS)
    def advance(self, step):
        until = self.conn.sim.now + step
        assert self.conn.sim.run(until=until) == self.model.sim.run(until=until)

    # -- invariants ------------------------------------------------------
    @invariant()
    def same_timer_behaviour(self):
        conn, model = self.conn, self.model
        assert conn.fired == model.fired  # bit-identical fire times
        assert conn.timeouts == model.timeouts
        assert conn.rto == model.rto
        assert (conn._rto_handle is None) == (model.handle is None)

    @invariant()
    def one_live_entry_and_none_when_idle(self):
        sim = self.conn.sim
        live = _live_entries(sim)
        assert live == sim.pending() <= 1
        assert live == (0 if self.conn._rto_handle is None else 1)
        if not self._in_flight():
            assert sim.pending() == 0


RtoTimerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
TestRtoTimerMachine = RtoTimerMachine.TestCase


def test_rearming_later_leaves_the_heap_alone_and_fires_on_the_deadline():
    conn = _Probe()
    sim = conn.sim
    conn.snd_nxt = 1000
    conn._arm_rto()  # due at 1.0
    entry = conn._rto_handle
    for step in range(1, 6):
        sim.run(until=step * 0.1)
        conn._arm_rto()  # deadline moves to 1.1 .. 1.5
    assert conn._rto_handle is entry and len(sim._heap) == 1
    sim.run(until=1.2)  # the entry fired at 1.0, early: re-pushed, no timeout
    assert conn.fired == [] and conn.timeouts == 0 and sim.pending() == 1
    conn.snd_una = conn.snd_nxt  # stop the retransmission chain after one
    sim.run()
    assert conn.fired == [pytest.approx(1.5)] and conn.timeouts == 1
    assert sim.pending() == 0


def test_shrunken_rto_pulls_the_entry_forward():
    conn = _Probe()
    sim = conn.sim
    conn.snd_nxt = 1000
    conn._arm_rto()  # due at 1.0
    conn.rto = 0.2
    conn._arm_rto()  # due at 0.2: the 1.0 entry cannot serve
    assert sim.pending() == 1 and conn._rto_handle.time == 0.2
    conn.snd_una = conn.snd_nxt
    sim.run()
    assert conn.fired == [0.2]

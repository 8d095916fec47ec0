"""Two TCP connections over an adversarial link, against the byte-stream oracle.

A Hypothesis state machine opens a connection between two hosts joined
by an in-test link, then writes data on either side, changes each
direction's impairments on their own (drop, duplicate, reorder, delay,
or lose exactly the next few packets) and lets simulated time pass; a
second machine also closes either side at any time.  The oracle is what a byte stream promises, stated in
counts (payloads are zero-filled):

* each side's ``bytes_delivered`` never exceeds what its peer wrote, and
  ends equal to it;
* ``rcv_nxt`` advances contiguously: it stays ``irs + 1`` plus the bytes
  delivered, plus one for the peer's FIN once that is taken, and the FIN
  is taken only after the last byte;
* ``cc.on_loss`` fires at most once per recovery episode: never again
  until the previous episode's recovery point is acknowledged;
* once the link is made clean, every byte written arrives with at most
  ``RTO_BUDGET`` more retransmission timeouts per side; then both sides
  close, both FINs are taken and acknowledged, and the simulator is
  left with no pending event.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.net.host import Host
from repro.packet import str_to_ip
from repro.sim import Simulator
from repro.tcpstack import Cubic, Reno, TCPConnection, TCPListener, TCPState

MAX_SEQ = 1 << 32
#: Retransmission timeouts each side may take once the link is clean.
RTO_BUDGET = 3
#: Simulated seconds allowed for that (MAX_RTO is 60 s).
HORIZON = 1000.0


def _seq_le(a, b):
    return ((b - a) & (MAX_SEQ - 1)) < MAX_SEQ // 2


class _Direction:
    """One direction of the in-test link: loss, duplication, reordering, delay."""

    def __init__(self, sim, receiver, rng):
        self.sim, self.receiver, self.rng = sim, receiver, rng
        self.drop = self.duplicate = self.reorder = 0.0
        self.delay = 0.002
        self.lose = 0  # the next this many packets are lost outright

    def carry(self, packet, size=None):
        if self.lose or self.rng.random() < self.drop:
            self.lose = max(0, self.lose - 1)
            return True
        for _ in range(2 if self.rng.random() < self.duplicate else 1):
            delay = self.delay
            if self.rng.random() < self.reorder:
                delay += self.rng.uniform(0.0, 4 * self.delay)  # later ones overtake it
            self.sim.schedule(delay, self.receiver.receive, packet, self.receiver.interfaces[0])
        return True


def _log_losses(conn):
    """Wrap ``cc.on_loss``: a list of (snd_una, recovery point) per window cut."""
    calls, inner = [], conn.cc.on_loss

    def on_loss(now=0.0):
        calls.append((conn.snd_una, conn._recover))
        inner(now)

    conn.cc.on_loss = on_loss
    return calls


class StreamMachine(RuleBasedStateMachine):
    @initialize(rng=st.randoms(use_true_random=False), cc_class=st.sampled_from([Reno, Cubic]),
                iss=st.integers(0, MAX_SEQ - 1), mss=st.sampled_from([536, 1460, 8960]))
    def open(self, rng, cc_class, iss, mss):
        self.sim = Simulator()
        hosts = []
        for name, address in (("a", "10.0.0.1"), ("b", "10.0.0.2")):
            host = Host(self.sim, name)
            host.add_interface(str_to_ip(address))
            hosts.append(host)
        self.links = [_Direction(self.sim, hosts[1], rng), _Direction(self.sim, hosts[0], rng)]
        hosts[0].send, hosts[1].send = self.links[0].carry, self.links[1].carry
        listener = TCPListener(hosts[1], 80, mss=mss, cc_class=cc_class)
        client = TCPConnection(hosts[0], 40000, hosts[1].ip, 80, mss=mss, cc_class=cc_class,
                               pmtud=False, iss=iss)
        client.connect()
        self.sim.run(until=1.0)
        assert client.state == TCPState.ESTABLISHED and listener.connections
        self.conns = [client, listener.connections[0]]
        assert self.conns[1].state == TCPState.ESTABLISHED
        self.written = [0, 0]
        self.closed = [False, False]
        self.losses = [_log_losses(conn) for conn in self.conns]

    # -- rules -----------------------------------------------------------
    @precondition(lambda self: not all(self.closed))
    @rule(side=st.integers(0, 1), nbytes=st.integers(1, 120_000))
    def write(self, side, nbytes):
        if self.closed[side]:
            side = 1 - side
        self.conns[side].send_bulk(nbytes)
        self.written[side] += nbytes

    @rule(direction=st.integers(0, 1), drop=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
          duplicate=st.sampled_from([0.0, 0.05, 0.3]), reorder=st.sampled_from([0.0, 0.1, 0.5]),
          delay=st.sampled_from([0.0005, 0.005, 0.03]))
    def impair(self, direction, drop, duplicate, reorder, delay):
        link = self.links[direction]
        link.drop, link.duplicate, link.reorder, link.delay = drop, duplicate, reorder, delay

    @rule(direction=st.integers(0, 1), count=st.integers(1, 3))
    def lose_next(self, direction, count):
        self.links[direction].lose = count

    @rule(seconds=st.floats(0.001, 3.0))
    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    # -- invariants ------------------------------------------------------
    @invariant()
    def delivered_bytes_are_a_prefix_of_the_peers(self):
        for side, conn in enumerate(self.conns):
            written = self.written[1 - side]
            assert conn.bytes_delivered <= written
            taken = (conn.rcv_nxt - conn.irs - 1) & (MAX_SEQ - 1)
            assert taken - conn.bytes_delivered in (0, 1)  # one more once the FIN is taken
            if taken > conn.bytes_delivered:
                assert self.closed[1 - side] and conn.bytes_delivered == written

    @invariant()
    def one_window_reduction_per_recovery_episode(self):
        for calls in self.losses:
            for (_, recover), (una, _) in zip(calls, calls[1:]):
                assert _seq_le(recover, una)

    def teardown(self):
        if not hasattr(self, "conns"):
            return
        for link in self.links:
            link.drop = link.duplicate = link.reorder = link.lose = 0
        timeouts = [conn.timeouts for conn in self.conns]
        self.sim.run(until=self.sim.now + HORIZON)  # the link is clean: every byte arrives
        for side, conn in enumerate(self.conns):
            assert conn.bytes_delivered == self.written[1 - side]
            assert conn.timeouts - timeouts[side] <= RTO_BUDGET
        for side, conn in enumerate(self.conns):
            if not self.closed[side]:
                conn.close()
        self.sim.run(until=self.sim.now + HORIZON)
        for conn in self.conns:
            assert (conn.rcv_nxt - conn.irs - 1) & (MAX_SEQ - 1) == conn.bytes_delivered + 1
            assert conn.snd_una == conn.snd_nxt  # our FIN is acknowledged
        assert self.sim.pending() == 0


class ClosingStreamMachine(StreamMachine):
    """The same, with either side closing at any time, link impaired or not.

    This found three bugs in the closing handshake, fixed with it: a FIN
    retransmitted as one byte of data the peer delivered (its FIN never
    taken), a side that had taken the peer's FIN sending neither its
    queued data nor its own FIN, and a repeated FIN left unacknowledged.
    """

    @precondition(lambda self: not all(self.closed))
    @rule(side=st.integers(0, 1))
    def close(self, side):
        if self.closed[side]:
            side = 1 - side
        self.conns[side].close()
        self.closed[side] = True


StreamMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
ClosingStreamMachine.TestCase.settings = StreamMachine.TestCase.settings
TestStreamMachine = StreamMachine.TestCase
TestClosingStreamMachine = ClosingStreamMachine.TestCase

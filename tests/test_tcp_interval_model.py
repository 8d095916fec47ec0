"""The SACK scoreboard and the reassembly queue against the code they replaced.

``TCPConnection`` keeps both of its interval sets — peer-SACKed ranges
ahead of ``snd_una`` and out-of-order data ahead of ``rcv_nxt`` — with
one module-level ``_insert_interval`` that computes modular offsets
inline, splices a block into a list in merged order (returning at once
when it is already covered) and re-merges any other.  The model is what
the connection had before: ``_sack_insert`` / ``_sack_prune``
and ``_store_ooo`` / ``_drain_ooo``, kept below verbatim, with the
sequence tests of their callers as they were.

Two Hypothesis state machines drive a real connection and the model
through the same insert and advance-base steps — blocks near the 2**32
wrap, stale blocks, blocks that straddle the base, duplicates, exact and
covered repeats of what is held, hostile blocks anywhere in sequence
space — and require the same lists, element for element and in order,
after every step.  A property holds the scoreboard's insert to the
merge body on arbitrary lists, including lists a moved base has left out
of merged order.  Only methods the connection had before are called, so
the file runs unchanged against the code it replaced.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.net.host import Host
from repro.packet import TCPHeader, TCPOption, str_to_ip
from repro.sim import Simulator
from repro.tcpstack import TCPConnection

MAX_SEQ = 1 << 32
MSS = 8960


def _seq_lt(a, b):
    return 0 < ((b - a) & (MAX_SEQ - 1)) < MAX_SEQ // 2


class _Parent:
    """The scoreboard and the reassembly queue as they were."""

    def __init__(self, snd_una, snd_nxt, rcv_nxt):
        self.snd_una = snd_una
        self.snd_nxt = snd_nxt
        self.rcv_nxt = rcv_nxt
        self.bytes_acked = 0
        self.bytes_delivered = 0
        self.segs_since_ack = 0
        self._sacked = []
        self._ooo = []

    # -- sender: the scoreboard over snd_una -----------------------------
    def record_sack(self, blocks):
        for start, stop in blocks:
            self._sack_insert(start, stop)

    def handle_ack(self, ack):
        if _seq_lt(self.snd_una, ack) and not _seq_lt(self.snd_nxt, ack):
            acked = (ack - self.snd_una) & (MAX_SEQ - 1)
            self.snd_una = ack
            self.bytes_acked += acked
            if self._sacked:
                self._sack_prune()

    def retransmit_length(self):
        """The length ``_retransmit_head`` chose."""
        if self._sacked:
            self._sack_prune()
        length = min(MSS, (self.snd_nxt - self.snd_una) & (MAX_SEQ - 1))
        if self._sacked:
            hole = self._sack_rel(self._sacked[0][0])
            if 0 < hole < MAX_SEQ // 2:
                length = min(length, hole)
        return length

    def _sack_rel(self, seq: int) -> int:
        return (seq - self.snd_una) & (MAX_SEQ - 1)

    def _sack_insert(self, start: int, stop: int) -> None:
        if self._sack_rel(stop) >= MAX_SEQ // 2:
            return  # stale block entirely below snd_una
        self._sacked.append((start, stop))
        self._sacked.sort(key=lambda block: self._sack_rel(block[0]))
        merged = []
        for lo, hi in self._sacked:
            if merged and self._sack_rel(lo) <= self._sack_rel(merged[-1][1]):
                if self._sack_rel(hi) > self._sack_rel(merged[-1][1]):
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self._sacked = merged

    def _sack_prune(self) -> None:
        """Drop blocks at or below snd_una after it advanced."""
        kept = []
        for lo, hi in self._sacked:
            if 0 < self._sack_rel(hi) < MAX_SEQ // 2:
                kept.append((lo if 0 < self._sack_rel(lo) < MAX_SEQ // 2 else self.snd_una, hi))
        self._sacked = kept

    # -- receiver: the reassembly queue over rcv_nxt ---------------------
    def handle_data(self, seq, length):
        """``_handle_data`` as it was; returns the ACKs it sent at once."""
        end = (seq + length) & (MAX_SEQ - 1)
        if not _seq_lt(self.rcv_nxt, end):  # entirely old
            self.segs_since_ack = 0
            return 1
        if seq != self.rcv_nxt and _seq_lt(seq, self.rcv_nxt):
            seq = self.rcv_nxt
        if seq == self.rcv_nxt:
            self._deliver((end - seq) & (MAX_SEQ - 1))
            if self._ooo:
                self._drain_ooo()
            self.segs_since_ack += 1
            if self.segs_since_ack < 2 and not self._ooo:
                return 0  # the delayed ACK is armed instead
        else:
            self._store_ooo(seq, end)
        self.segs_since_ack = 0
        return 1

    def sack_option(self):
        """The SACK option data ``_send_ack`` put on the wire."""
        return b"".join(struct.pack("!II", start, stop) for start, stop in self._ooo[:3])

    def _deliver(self, length: int) -> None:
        self.rcv_nxt = (self.rcv_nxt + length) & (MAX_SEQ - 1)
        self.bytes_delivered += length

    def _rel(self, seq: int) -> int:
        """Distance of *seq* ahead of rcv_nxt (modular)."""
        return (seq - self.rcv_nxt) & (MAX_SEQ - 1)

    def _store_ooo(self, seq: int, end: int) -> None:
        intervals = self._ooo
        intervals.append((seq, end))
        intervals.sort(key=lambda interval: self._rel(interval[0]))
        merged = []
        for start, stop in intervals:
            if merged and self._rel(start) <= self._rel(merged[-1][1]):
                if self._rel(stop) > self._rel(merged[-1][1]):
                    merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        self._ooo = merged

    def _drain_ooo(self) -> None:
        """Deliver any stored intervals now reachable from rcv_nxt."""
        while self._ooo:
            start, stop = self._ooo[0]
            if self._rel(start) > 0 and self._rel(start) < MAX_SEQ // 2:
                break  # still a hole in front
            self._ooo.pop(0)
            tail = self._rel(stop)
            if 0 < tail < MAX_SEQ // 2:
                self._deliver(tail)


def _probe(snd_una, rcv_nxt):
    """A connection whose host has no route: segments it sends are kept."""
    host = Host(Simulator(), "probe")
    host.add_interface(str_to_ip("10.0.0.1"))
    conn = TCPConnection(host, 40000, str_to_ip("10.0.0.2"), 80, mss=MSS, pmtud=False)
    conn.snd_una = snd_una
    conn.snd_nxt = (snd_una + (1 << 30)) & (MAX_SEQ - 1)
    conn.rcv_nxt = rcv_nxt
    conn.sent = []
    host.send = lambda packet, size=None: conn.sent.append(packet)
    return conn


def _wire(blocks):
    """A TCP header carrying *blocks* as one SACK option."""
    edges = [seq for block in blocks for seq in block]
    return TCPHeader(options=[TCPOption(TCPOption.SACK, struct.pack(f"!{len(edges)}I", *edges))])


_BASES = st.one_of(
    st.integers(0, MAX_SEQ - 1),
    st.integers(MAX_SEQ - 200_000, MAX_SEQ - 1),  # the 2**32 wrap inside the window
)
_NEAR = st.one_of(
    st.integers(-120_000, 240_000),  # behind, straddling and ahead of the base
    st.sampled_from([-1, 0, 1, MAX_SEQ // 2 - 1, MAX_SEQ // 2, MAX_SEQ // 2 + 1]),  # where tests turn
)
_ANY = st.integers(0, MAX_SEQ - 1)


class _Machine(RuleBasedStateMachine):
    @initialize(snd_una=_BASES, rcv_nxt=_BASES)
    def start(self, snd_una, rcv_nxt):
        self.conn = _probe(snd_una, rcv_nxt)
        self.model = _Parent(snd_una, self.conn.snd_nxt, rcv_nxt)

    def held(self, data, intervals):
        """Up to four held intervals, some cut down to a covered part."""
        blocks = []
        for start, stop in data.draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=4)):
            span = (stop - start) & (MAX_SEQ - 1)
            cut = data.draw(st.integers(0, min(span, 4096)))
            trim = data.draw(st.integers(0, min(span - cut, 4096)))
            blocks.append(((start + cut) & (MAX_SEQ - 1), (stop - trim) & (MAX_SEQ - 1)))
        return blocks


class ScoreboardMachine(_Machine):
    """SACK blocks in, ``snd_una`` forward with a prune."""

    def sack(self, blocks):
        self.conn._record_sack(_wire(blocks))
        self.model.record_sack(blocks)

    @rule(blocks=st.lists(st.tuples(_NEAR, st.integers(0, 30_000)), min_size=1, max_size=4))
    def sack_near(self, blocks):
        una = self.conn.snd_una
        self.sack([((una + offset) & (MAX_SEQ - 1), (una + offset + length) & (MAX_SEQ - 1))
                   for offset, length in blocks])

    @rule(blocks=st.lists(st.tuples(_ANY, _ANY), min_size=1, max_size=2))
    def sack_anywhere(self, blocks):
        self.sack(blocks)

    @precondition(lambda self: self.conn._sacked)
    @rule(data=st.data())
    def sack_repeat(self, data):
        self.sack(self.held(data, self.conn._sacked))

    @precondition(lambda self: self.conn._sacked)
    @rule(data=st.data(), grow=st.integers(1, 9000))
    def sack_grows(self, data, grow):
        """What a receiver filling in behind a hole reports: a held block, longer."""
        start, stop = data.draw(st.sampled_from(self.conn._sacked))
        self.sack([(start, (stop + grow) & (MAX_SEQ - 1))])

    @rule(step=st.integers(-30_000, 60_000))
    def ack(self, step):
        ack = (self.conn.snd_una + step) & (MAX_SEQ - 1)
        self.conn._handle_ack(ack, False)
        self.model.handle_ack(ack)

    @precondition(lambda self: self.conn._sacked)
    @rule(data=st.data(), into=st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-2, 3000)))
    def ack_into_block(self, data, into):
        """An ACK at, just short of or inside a held block's edges."""
        start, stop = data.draw(st.sampled_from(self.conn._sacked))
        ack = (data.draw(st.sampled_from([start, stop])) + into) & (MAX_SEQ - 1)
        self.conn._handle_ack(ack, False)
        self.model.handle_ack(ack)

    @rule()
    def retransmit_head(self):
        """Prune at the same base and pick the hole in front of the first block."""
        sent = []
        self.conn._transmit_segment = lambda seq, length, retransmission=False: sent.append(
            (seq, length))
        self.conn._retransmit_head()
        length = self.model.retransmit_length()
        assert sent == ([(self.model.snd_una, length)] if length > 0 else [])

    @invariant()
    def same_scoreboard(self):
        assert self.conn._sacked == self.model._sacked
        assert (self.conn.snd_una, self.conn.bytes_acked) == (
            self.model.snd_una, self.model.bytes_acked)


class ReassemblyMachine(_Machine):
    """Data segments in: held out of order, or delivered with a drain."""

    def segment(self, seq, length):
        seq &= MAX_SEQ - 1
        self.conn.sent.clear()
        self.conn._handle_data(seq, length, False)
        assert len(self.conn.sent) == self.model.handle_data(seq, length)
        for packet in self.conn.sent:  # an ACK advertises the held blocks
            option = packet.tcp.find_option(TCPOption.SACK)
            assert (option.data if option else b"") == self.model.sack_option()

    @rule(offset=_NEAR, length=st.integers(1, 9000))
    def segment_near(self, offset, length):
        self.segment(self.conn.rcv_nxt + offset, length)

    @rule(length=st.integers(1, 9000))
    def in_order(self, length):
        self.segment(self.conn.rcv_nxt, length)

    @precondition(lambda self: self.conn._ooo)
    @rule(extra=st.integers(-3000, 3000))
    def fill_first_hole(self, extra):
        """The retransmission that closes (or nearly closes) the front hole."""
        hole = (self.conn._ooo[0][0] - self.conn.rcv_nxt) & (MAX_SEQ - 1)
        self.segment(self.conn.rcv_nxt, max(1, hole + extra))

    @precondition(lambda self: self.conn._ooo)
    @rule(gap=st.one_of(st.just(0), st.integers(0, 9000)), length=st.integers(1, 9000))
    def segment_after_last(self, gap, length):
        """The next segment behind a hole: it extends the last range, or opens a new one."""
        self.segment(self.conn._ooo[-1][1] + gap, length)

    @precondition(lambda self: self.conn._ooo)
    @rule(data=st.data())
    def segment_repeat(self, data):
        for start, stop in self.held(data, self.conn._ooo):
            self.segment(start, max(1, (stop - start) & (MAX_SEQ - 1)))

    @invariant()
    def same_queue(self):
        assert self.conn._ooo == self.model._ooo
        assert (self.conn.rcv_nxt, self.conn.bytes_delivered) == (
            self.model.rcv_nxt, self.model.bytes_delivered)


_SETTINGS = settings(max_examples=150, stateful_step_count=40, deadline=None)
ScoreboardMachine.TestCase.settings = _SETTINGS
ReassemblyMachine.TestCase.settings = _SETTINGS
TestScoreboardMachine = ScoreboardMachine.TestCase
TestReassemblyMachine = ReassemblyMachine.TestCase


_EDGES = st.sampled_from([0, 1, 2, 3, 5, 8, MAX_SEQ - 5, MAX_SEQ - 2, MAX_SEQ - 1,
                          MAX_SEQ // 2, MAX_SEQ // 2 + 1])  # wrapping and tied ranges
_PAIRS = st.one_of(
    st.tuples(_ANY, _ANY),
    st.tuples(st.integers(0, 200_000), st.integers(0, 200_000)),
    st.tuples(_EDGES, _EDGES),
)


def _both(snd_una, sacked, blocks):
    """Scoreboard *sacked* at *snd_una* takes *blocks*: (connection, model) lists."""
    conn = _probe(snd_una, 0)
    model = _Parent(snd_una, conn.snd_nxt, 0)
    conn._sacked, model._sacked = list(sacked), list(sacked)
    conn._record_sack(_wire(blocks))
    model.record_sack(blocks)
    return conn._sacked, model._sacked


@settings(max_examples=400, deadline=None)
@given(snd_una=st.one_of(_ANY, st.integers(0, 200_000), st.just(0)),
       sacked=st.lists(_PAIRS, max_size=6), block=_PAIRS)
def test_any_list_ends_as_the_old_merge_left_it(snd_una, sacked, block):
    """In merged order or not, ranges wrapping past the base or tied: as the old merge left it."""
    held, expected = _both(snd_una, sacked, [block])
    assert held == expected


@settings(max_examples=300, deadline=None)
@given(snd_una=_BASES, data=st.data(),
       blocks=st.lists(st.tuples(st.integers(0, 240_000), st.integers(0, 30_000)), max_size=8))
def test_a_held_block_repeated_leaves_the_list_as_it_was(snd_una, blocks, data):
    """What every ACK does: repeat blocks the scoreboard holds."""
    held, _ = _both(snd_una, [], [((snd_una + offset) & (MAX_SEQ - 1),
                                   (snd_una + offset + length) & (MAX_SEQ - 1))
                                  for offset, length in blocks])
    repeats = data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=4)) if held else []
    assert _both(snd_una, held, repeats) == (held, held)


def test_blocks_across_the_wrap_merge():
    blocks = [(MAX_SEQ - 1000, 500), (500, 2000), (MAX_SEQ - 2000, MAX_SEQ - 1500)]
    held, expected = _both(MAX_SEQ - 3000, [], blocks)
    assert held == expected == [(MAX_SEQ - 2000, MAX_SEQ - 1500), (MAX_SEQ - 1000, 2000)]


def test_a_straddling_block_sorts_last_until_a_prune_moves_its_start():
    conn = _probe(10_000, 0)
    conn._record_sack(_wire([(13_000, 20_000), (9_000, 10_500)]))
    assert conn._sacked == [(13_000, 20_000), (9_000, 10_500)]
    conn._sack_prune()
    assert conn._sacked == [(13_000, 20_000), (10_000, 10_500)]
    conn._record_sack(_wire([(14_000, 15_000)]))  # covered, but out of merged order
    assert conn._sacked == [(10_000, 10_500), (13_000, 20_000)]

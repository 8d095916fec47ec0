"""An event-driven TCP implementation over the simulator.

Faithful enough for the paper's arguments to be *emergent*:

* MSS is negotiated in the handshake via the MSS option — which is the
  hook PXGW's MSS-clamp module rewrites;
* congestion control is byte-counting AIMD (or CUBIC), so window ramp
  and steady-state throughput scale with the negotiated MSS;
* loss recovery is NewReno-lite (3 dup-ACKs → fast retransmit, RTO with
  exponential backoff), so random WAN loss yields Mathis-like behaviour;
* data packets carry DF, and an ICMP frag-needed handler implements
  classical PMTUD at the sender.

The byte stream itself is modelled as counts with zero-filled payloads:
contents never matter to any experiment, but lengths, sequence numbers,
and wire packets are exact.
"""

from __future__ import annotations

import struct
from functools import cached_property
from typing import Callable, Dict, List, Optional, Type

from ..net.host import Host
from ..packet import (
    ICMPMessage,
    IPv4Header,
    Packet,
    TCPFlags,
    TCPHeader,
    TCPOption,
)
from ..packet.builder import next_ip_id
from .congestion import CongestionControl, Reno

__all__ = ["TCPConnection", "TCPListener", "TCPState"]

_ZERO_CACHE: Dict[int, bytes] = {}


def _zeros(length: int) -> bytes:
    """A shared zero buffer of *length* (payload contents are irrelevant)."""
    buffer = _ZERO_CACHE.get(length)
    if buffer is None:
        buffer = bytes(length)
        if len(_ZERO_CACHE) < 4096:
            _ZERO_CACHE[length] = buffer
    return buffer


class TCPState:
    """Connection states (subset sufficient for the experiments)."""

    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT = "FIN_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"  # CLOSE_WAIT, then our own FIN sent


#: Where queued data, then our FIN, still goes out.
_SENDING = (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT)


MAX_SEQ = 1 << 32
#: Sequence arithmetic is mod 2**32; b is ahead of a (RFC 1982) when
#: ``0 < (b - a) & _MASK < _HALF``.
_MASK = MAX_SEQ - 1
_HALF = MAX_SEQ // 2


def _insert_interval(intervals: List[tuple], base: int, start: int, stop: int) -> None:
    """Merge [start, stop) into *intervals*, in place.

    *intervals* is sorted by distance ahead of *base* (mod 2**32) and
    merged: the SACK scoreboard over ``snd_una``, the reassembly queue
    over ``rcv_nxt``.  While the list is in merged order the range is
    spliced in where a sort would put it, and one covered by the range
    in front of it returns at once (every ACK repeats known SACK
    blocks); a list the base moved out of merged order is rebuilt.
    """
    offset = (start - base) & _MASK
    end = (stop - base) & _MASK
    floor = reach = front = -1
    at = 0  # ranges starting at or before this one
    for lo, hi in intervals:
        lo = (lo - base) & _MASK
        if lo < floor or lo <= reach:
            break  # out of merged order: rebuilt below
        floor = lo
        reach = (hi - base) & _MASK
        if lo <= offset:
            at += 1
            front = reach
    else:
        first = at
        if offset <= front:  # joins the range in front of it
            if end <= front:
                return  # covered
            first = at - 1
            start = intervals[first][0]
        while at < len(intervals) and (intervals[at][0] - base) & _MASK <= end:
            hi = intervals[at][1]
            if (hi - base) & _MASK > end:
                stop, end = hi, (hi - base) & _MASK
            at += 1
        intervals[first:at] = [(start, stop)]
        return
    # Splicing each range back in, in list order, builds what sort-and-merge did.
    ranges = intervals + [(start, stop)]
    intervals.clear()
    for lo, hi in ranges:
        _insert_interval(intervals, base, lo, hi)


class TCPConnection:
    """One endpoint of a TCP connection living on a simulated Host."""

    INITIAL_RTO = 1.0
    MIN_RTO = 0.2
    MAX_RTO = 60.0
    DELACK_TIMEOUT = 0.025
    WINDOW_SCALE = 10

    def __init__(
        self,
        host: Host,
        local_port: int,
        peer_ip: int,
        peer_port: int,
        mss: int = 1460,
        cc_class: Type[CongestionControl] = Reno,
        pmtud: bool = True,
        iss: int = 0,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port
        self.peer_ip = peer_ip
        self.peer_port = peer_port
        self.local_mss = mss
        self.cc_class = cc_class
        self.pmtud_enabled = pmtud
        self.state = TCPState.CLOSED

        # Sender sequence state.
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.send_mss = mss  # refined at handshake / by PMTUD
        self.peer_wscale = 0
        self.peer_window = 65535
        self.cc: Optional[CongestionControl] = None

        # Receiver sequence state.
        self.irs = 0
        self.rcv_nxt = 0
        #: Out-of-order data held for reassembly: disjoint, merged
        #: [start, end) sequence intervals, sorted by distance ahead of
        #: ``rcv_nxt``.
        self._ooo: List[tuple] = []
        self._segs_since_ack = 0
        self._delack_handle = None

        # Application model: bulk bytes pending to send.
        self._pending_bytes = 0
        self._fin_queued = False

        # RTT estimation / retransmission.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.INITIAL_RTO
        #: The RTO is lazy: one live engine entry per connection, and
        #: the time the timer is really due.  Re-arming moves the
        #: deadline only; the entry re-pushes itself when it fires
        #: early.  ``_rto_handle is None`` means the timer is off.
        self._rto_handle = None
        self._rto_deadline = 0.0
        self._rtt_sample: Optional[tuple] = None  # (target_seq, sent_at)
        self._dupacks = 0
        self._in_recovery = False
        self._recover = iss
        #: End of the range already retransmitted this recovery; a
        #: partial ACK below this mark must not trigger another
        #: retransmission (the data is already in flight).
        self._rtx_until = iss
        #: Peer-SACKed [start, end) intervals beyond snd_una (merged,
        #: sorted by distance ahead of snd_una).
        self._sacked: List[tuple] = []

        # Statistics.
        self.bytes_delivered = 0
        self.bytes_acked = 0
        self.retransmits = 0
        self.timeouts = 0

        host.on_tcp(local_port, peer_ip, peer_port, self._on_packet)
        if pmtud:
            host.on_icmp(self._on_icmp)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Actively open: send SYN carrying our MSS and window scale."""
        if self.state != TCPState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TCPState.SYN_SENT
        self._send_syn()
        self.snd_nxt = (self.iss + 1) & _MASK

    def send_bulk(self, nbytes: int) -> None:
        """Queue *nbytes* of application data (an iPerf-style source)."""
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        self._pending_bytes += nbytes
        self._pump()

    def close(self) -> None:
        """Half-close once all queued data has been sent."""
        self._fin_queued = True
        self._pump()

    @property
    def flight_size(self) -> int:
        """Unacknowledged bytes in flight."""
        return (self.snd_nxt - self.snd_una) & _MASK

    @property
    def effective_peer_window(self) -> int:
        return self.peer_window << self.peer_wscale

    def throughput_bps(self, duration: float) -> float:
        """Receiver-side goodput over *duration*."""
        if duration <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / duration

    # ------------------------------------------------------------------
    # Packet construction
    # ------------------------------------------------------------------
    @cached_property
    def _src_ip(self) -> int:
        """The host's address, learned when the first segment is built."""
        return self.host.ip

    def _build(self, flags: int, seq: int, payload: bytes = b"", options=None) -> Packet:
        # Direct header construction instead of build_tcp(): this runs
        # once per segment and per ACK, and the builder's generality
        # (address coercion, option assembly, keyword plumbing) was a
        # measurable slice of the send path.  Field values — including
        # the IP total_length, which deliberately excludes TCP options
        # exactly as the builder-then-patch-options sequence did — are
        # byte-identical to the old path.
        tcp = TCPHeader.__new__(TCPHeader)
        tcp.src_port = self.local_port
        tcp.dst_port = self.peer_port
        tcp.seq = seq
        tcp.ack = self.rcv_nxt
        tcp.flags = flags
        tcp.window = 65535
        tcp.checksum = 0
        tcp.urgent = 0
        tcp.options = options or ()
        ip = IPv4Header.__new__(IPv4Header)
        ip.src = self._src_ip
        ip.dst = self.peer_ip
        ip.protocol = 6
        ip.total_length = 40 + len(payload)
        ip.identification = next_ip_id()
        ip.dont_fragment = True
        ip.more_fragments = False
        ip.fragment_offset = 0
        ip.ttl = 64
        ip.tos = 0
        ip.options = b""
        return Packet(ip, tcp, payload)

    def _send_control(self, flags: int, seq: int, options=None) -> None:
        # An option-less segment is 20 B of IP and 20 B of TCP header.
        self.host.send(self._build(flags, seq, options=options), None if options else 40)

    def _send_syn(self) -> None:
        """(Re)send our SYN, or SYN-ACK when answering one, and time it."""
        flags = TCPFlags.SYN if self.state == TCPState.SYN_SENT else TCPFlags.SYN | TCPFlags.ACK
        options = (TCPOption.mss(self.local_mss), TCPOption.window_scale(self.WINDOW_SCALE))
        self._send_control(flags, self.iss, options)
        self._arm_rto()

    def _send_ack(self) -> None:
        self._segs_since_ack = 0
        self._cancel_delack()
        options = None
        if self._ooo:
            # Advertise up to 3 SACK blocks (RFC 2018) so the sender
            # can retransmit exactly the missing ranges.
            edges = [seq for block in self._ooo[:3] for seq in block]
            options = (TCPOption(TCPOption.SACK, struct.pack(f"!{len(edges)}I", *edges)),)
        self._send_control(TCPFlags.ACK, self.snd_nxt, options=options)

    # ------------------------------------------------------------------
    # Handshake and ingress dispatch
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        tcp = packet.l4
        flags = tcp.flags
        state = self.state
        if state != TCPState.ESTABLISHED or flags & TCPFlags.SYN:
            # Off the bulk path: handshake, teardown, a stray SYN.
            if state == TCPState.SYN_SENT and flags & TCPFlags.SYN and flags & TCPFlags.ACK:
                self._complete_active_open(packet)
                return
            if state == TCPState.SYN_RCVD and flags & TCPFlags.ACK and not flags & TCPFlags.SYN:
                if tcp.ack == self.snd_nxt:
                    self._establish()
            if self.state == TCPState.ESTABLISHED and flags & TCPFlags.SYN:
                # A retransmitted SYN-ACK: our final ACK was lost; re-ACK.
                self._send_ack()
                return
            if self.state in (TCPState.CLOSED, TCPState.SYN_SENT):
                return
        payload = packet.payload
        if flags & TCPFlags.ACK:
            if tcp.options:
                self._record_sack(tcp)
            # Only a segment without data or FIN can be a duplicate ACK
            # (RFC 5681 §2 (a), (c)): the reverse stream of a two-way
            # transfer repeats the same ACK number on every data segment,
            # and so does the peer's FIN while our data is in flight.
            self._handle_ack(tcp.ack, not payload and not flags & TCPFlags.FIN)
        if payload:
            self._handle_data(tcp.seq, len(payload), flags & TCPFlags.PSH)
        if flags & TCPFlags.FIN:
            self._handle_fin(tcp.seq, len(payload))

    def accept_syn(self, packet: Packet) -> None:
        """Passive open: respond to a SYN (called by TCPListener)."""
        self._take_syn(packet.tcp)
        self.state = TCPState.SYN_RCVD
        self._send_syn()
        self.snd_nxt = (self.iss + 1) & _MASK

    def _complete_active_open(self, packet: Packet) -> None:
        tcp = packet.tcp
        self._take_syn(tcp)
        self.snd_una = tcp.ack
        self.peer_window = tcp.window
        self._establish()
        self._send_ack()

    def _take_syn(self, tcp) -> None:
        """Learn the peer's initial sequence number, MSS and window scale."""
        self.irs = tcp.seq
        self.rcv_nxt = (tcp.seq + 1) & _MASK
        peer_mss = tcp.mss_option
        if peer_mss is not None:
            self.send_mss = min(self.local_mss, peer_mss)
        wscale = tcp.find_option(TCPOption.WINDOW_SCALE)
        if wscale is not None:
            self.peer_wscale = wscale.data[0]

    def _establish(self) -> None:
        if self.state == TCPState.ESTABLISHED:
            return
        self.state = TCPState.ESTABLISHED
        self.cc = self.cc_class(self.send_mss)
        self._cancel_rto()
        self._pump()

    # ------------------------------------------------------------------
    # Sender path
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send as much queued data as cwnd and rwnd allow."""
        if self.state not in _SENDING or self.cc is None:
            return
        window = min(int(self.cc.cwnd), self.peer_window << self.peer_wscale)
        # Locals for the window loop: flight size and pending bytes are
        # re-derived per iteration on the hot path otherwise.
        mask = _MASK
        flight = (self.snd_nxt - self.snd_una) & mask
        pending = self._pending_bytes
        send_mss = self.send_mss
        while pending > 0 and flight < window:
            room = window - flight
            length = send_mss if send_mss < pending else pending
            if length > room:
                # Silly-window avoidance: hold a sub-MSS tail until the
                # window opens (unless nothing at all is in flight).
                if flight > 0:
                    break
                length = room
            if length <= 0:
                break
            self._transmit_segment(self.snd_nxt, length)
            self.snd_nxt = (self.snd_nxt + length) & mask
            pending -= length
            flight += length
            self._pending_bytes = pending
        if self._fin_queued and self._pending_bytes == 0:
            self._send_control(TCPFlags.FIN | TCPFlags.ACK, self.snd_nxt)
            self.snd_nxt = (self.snd_nxt + 1) & _MASK
            self.state = TCPState.FIN_WAIT if self.state == TCPState.ESTABLISHED else TCPState.LAST_ACK
        if self._rto_handle is None and self.snd_nxt != self.snd_una:
            self._arm_rto()

    def _transmit_segment(self, seq: int, length: int, retransmission: bool = False) -> None:
        packet = self._build(TCPFlags.ACK, seq, payload=_zeros(length))
        if not retransmission and self._rtt_sample is None:
            self._rtt_sample = ((seq + length) & _MASK, self.sim.now)
        self.host.send(packet, 40 + length)

    def _handle_ack(self, ack: int, bare: bool) -> None:
        """Process an ACK number; *bare* says its segment carried no data and no FIN."""
        acked = (ack - self.snd_una) & _MASK
        if 0 < acked < _HALF and not 0 < (ack - self.snd_nxt) & _MASK < _HALF:
            self.snd_una = ack
            self.bytes_acked += acked
            if self._sacked:
                self._sack_prune()
            self._dupacks = 0
            if self._rtt_sample is not None:
                self._sample_rtt(ack)
            if self._in_recovery and not 0 < (self._recover - ack) & _MASK < _HALF:
                self._in_recovery = False  # full ACK: recovery complete
            if self.cc is not None:
                if self._in_recovery:
                    # NewReno partial ACK: retransmit the next hole,
                    # unless that range is already in flight from an
                    # earlier retransmission (receivers ACK at finer
                    # granularity than we retransmit when a PXGW has
                    # resegmented the stream).
                    if not 0 < (self._rtx_until - ack) & _MASK < _HALF:
                        self._retransmit_head()
                else:
                    self.cc.on_ack(acked, self.sim.now)
            if self.snd_nxt != self.snd_una:
                self._arm_rto()
            else:
                # Flight drained: the cancel is real, so no timer entry
                # outlives the transfer.
                self._cancel_rto()
                self.rto = max(self.MIN_RTO, self.rto / 2)
            self._pump()
        elif bare and ack == self.snd_una and self.snd_nxt != self.snd_una:
            self._dupacks += 1
            if self._dupacks == 3:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        if self._in_recovery:
            return  # at most one window reduction per loss event
        self._in_recovery = True
        self._recover = self.snd_nxt
        self._rtx_until = self.snd_una
        if self.cc is not None:
            self.cc.on_loss(self.sim.now)
        self._retransmit_head()

    def _record_sack(self, tcp) -> None:
        """Fold the packet's SACK blocks into the scoreboard."""
        option = tcp.find_option(TCPOption.SACK)
        if option is None or len(option.data) % 8:
            return
        edges = struct.unpack(f"!{len(option.data) // 4}I", option.data)
        una = self.snd_una
        for start, stop in zip(edges[::2], edges[1::2]):
            if (stop - una) & _MASK < _HALF:  # else stale: entirely below snd_una
                _insert_interval(self._sacked, una, start, stop)

    def _sack_prune(self) -> None:
        """Drop blocks at or below snd_una after it advanced."""
        una = self.snd_una
        self._sacked = [
            (lo if 0 < (lo - una) & _MASK < _HALF else una, hi)
            for lo, hi in self._sacked
            if 0 < (hi - una) & _MASK < _HALF
        ]

    def _retransmit_head(self) -> None:
        """Retransmit the first missing range.

        With SACK information the retransmission covers exactly the
        hole in front of the first SACKed block — critical when a
        middlebox resegmented the stream and receiver ACK boundaries no
        longer match sender segments.
        """
        if self._sacked:
            self._sack_prune()
        length = min(self.send_mss, self.flight_size)
        if self._sacked:
            hole = (self._sacked[0][0] - self.snd_una) & _MASK
            if 0 < hole < _HALF:
                length = min(length, hole)
        if length <= 0:
            return
        self.retransmits += 1
        self._rtt_sample = None  # Karn's rule
        self._rtx_until = (self.snd_una + length) & _MASK
        # Once our FIN is out, the last sequence number is it, not data.
        fin = self._rtx_until == self.snd_nxt and self.state in (TCPState.FIN_WAIT, TCPState.LAST_ACK)
        if length > fin:
            self._transmit_segment(self.snd_una, length - fin, retransmission=True)
        if fin:
            self._send_control(TCPFlags.FIN | TCPFlags.ACK, (self.snd_nxt - 1) & _MASK)
        self._arm_rto()

    def _sample_rtt(self, ack: int) -> None:
        target, sent_at = self._rtt_sample
        if 0 < (target - ack) & _MASK < _HALF:  # not yet acknowledged
            return
        self._rtt_sample = None
        sample = self.sim.now - sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(self.MAX_RTO, max(self.MIN_RTO, self.srtt + 4 * self.rttvar))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer: due ``rto`` from now.

        Bulk TCP re-arms on every advancing ACK and the timer almost
        never fires, so re-arming only moves the deadline.  The engine
        is touched when no entry is live, or when the deadline moved
        *before* the live entry (``rto`` shrank), which a late-firing
        entry could not honour.
        """
        self._rto_deadline = deadline = self.sim.now + self.rto
        handle = self._rto_handle
        if handle is not None:
            if deadline >= handle.time:
                return
            handle.cancel()
        self._rto_handle = self.sim.schedule_at(deadline, self._rto_expired)

    def _cancel_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _rto_expired(self) -> None:
        """The live entry fired: time out, or re-push to the real deadline."""
        deadline = self._rto_deadline
        if deadline > self.sim.now:
            self._rto_handle = self.sim.schedule_at(deadline, self._rto_expired)
        else:
            self._rto_handle = None
            self._on_rto()

    def _on_rto(self) -> None:
        self.timeouts += 1
        self.rto = min(self.MAX_RTO, self.rto * 2)
        if self.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD):
            self._send_syn()
            return
        if self.flight_size == 0:
            return
        if self.cc is not None:
            self.cc.on_timeout(self.sim.now)
        self._in_recovery = True
        self._recover = self.snd_nxt
        self._rtx_until = self.snd_una  # RTO: force a fresh retransmit
        self._retransmit_head()

    # ------------------------------------------------------------------
    # Receiver path
    # ------------------------------------------------------------------
    def _handle_data(self, seq: int, length: int, psh: bool) -> None:
        rcv_nxt = self.rcv_nxt
        fresh = (seq + length - rcv_nxt) & _MASK
        if not 0 < fresh < _HALF:  # entirely old
            self._send_ack()
            return
        offset = (seq - rcv_nxt) & _MASK
        if offset == 0 or offset > _HALF:
            # In order, or a partial overlap whose new tail starts at rcv_nxt.
            self._deliver(fresh)
            if self._ooo:
                self._drain_ooo()
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2 or psh or self._ooo:
                self._send_ack()
            else:
                self._schedule_delack()
        else:
            # Out of order: hold and dup-ACK immediately.
            _insert_interval(self._ooo, rcv_nxt, seq, (seq + length) & _MASK)
            self._send_ack()

    def _deliver(self, length: int) -> None:
        self.rcv_nxt = (self.rcv_nxt + length) & _MASK
        self.bytes_delivered += length

    def _drain_ooo(self) -> None:
        """Deliver any stored intervals now reachable from rcv_nxt."""
        ooo = self._ooo
        while ooo:
            start, stop = ooo[0]
            if 0 < (start - self.rcv_nxt) & _MASK < _HALF:
                break  # still a hole in front
            ooo.pop(0)
            tail = (stop - self.rcv_nxt) & _MASK
            if 0 < tail < _HALF:
                self._deliver(tail)

    def _handle_fin(self, seq: int, payload_len: int) -> None:
        if (seq + payload_len) & _MASK == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & _MASK
            if self.state == TCPState.ESTABLISHED:
                self.state = TCPState.CLOSE_WAIT
        self._send_ack()  # a repeated FIN too: the ACK of the first may be lost

    def _schedule_delack(self) -> None:
        if self._delack_handle is None:
            self._delack_handle = self.sim.schedule(self.DELACK_TIMEOUT, self._on_delack)

    def _cancel_delack(self) -> None:
        if self._delack_handle is not None:
            self._delack_handle.cancel()
            self._delack_handle = None

    def _on_delack(self) -> None:
        self._delack_handle = None
        if self._segs_since_ack > 0:
            self._send_ack()

    # ------------------------------------------------------------------
    # Classical PMTUD at the sender
    # ------------------------------------------------------------------
    def _on_icmp(self, packet: Packet, message: ICMPMessage) -> None:
        if not message.is_frag_needed or not self.pmtud_enabled:
            return
        # Match the embedded header to this connection's flow.
        try:
            inner = IPv4Header.unpack(message.payload, verify=False)
        except ValueError:
            return
        if inner.dst != self.peer_ip or inner.protocol != 6:
            return
        new_mss = max(536, message.next_hop_mtu - 40)
        if new_mss < self.send_mss:
            self.send_mss = new_mss
            if self.cc is not None:
                self.cc.mss = new_mss
            # Retransmit the head at the new size.
            if self.flight_size > 0:
                self._retransmit_head()


class TCPListener:
    """A passive listener that spawns server connections on SYN."""

    def __init__(
        self,
        host: Host,
        port: int,
        mss: int = 1460,
        cc_class: Type[CongestionControl] = Reno,
        on_accept: Optional[Callable[[TCPConnection], None]] = None,
    ):
        self.host = host
        self.port = port
        self.mss = mss
        self.cc_class = cc_class
        self.on_accept = on_accept
        self.connections: List[TCPConnection] = []
        host.on_tcp_accept(port, self._on_syn)

    def _on_syn(self, packet: Packet) -> None:
        if not packet.tcp.syn or packet.tcp.ack_flag:
            return
        connection = TCPConnection(
            self.host,
            local_port=self.port,
            peer_ip=packet.ip.src,
            peer_port=packet.tcp.src_port,
            mss=self.mss,
            cc_class=self.cc_class,
        )
        self.connections.append(connection)
        connection.accept_syn(packet)
        if self.on_accept:
            self.on_accept(connection)

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
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Type

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


MAX_SEQ = 1 << 32


def _seq_lt(a: int, b: int) -> bool:
    """Modular sequence comparison a < b (RFC 1982 style)."""
    return 0 < ((b - a) & (MAX_SEQ - 1)) < MAX_SEQ // 2


class TCPConnection:
    """One endpoint of a TCP connection living on a simulated Host."""

    INITIAL_RTO = 1.0
    MIN_RTO = 0.2
    MAX_RTO = 60.0
    DELACK_TIMEOUT = 0.025
    WINDOW_SCALE = 10
    #: Samples ``cwnd_trace`` retains (the most recent ones).
    CWND_TRACE_CAPACITY = 1024

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
        self.established_at: Optional[float] = None
        #: The last ``CWND_TRACE_CAPACITY`` ``(time, cwnd)`` samples, one
        #: per window change; ``cwnd_samples`` counts every one taken.
        self.cwnd_trace: Deque[tuple] = deque(maxlen=self.CWND_TRACE_CAPACITY)
        self.cwnd_samples = 0
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_established: Optional[Callable[[], None]] = None

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
        self._send_control(
            flags=TCPFlags.SYN,
            seq=self.iss,
            options=[TCPOption.mss(self.local_mss), TCPOption.window_scale(self.WINDOW_SCALE)],
        )
        self.snd_nxt = (self.iss + 1) & (MAX_SEQ - 1)
        self._arm_rto()

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
        return (self.snd_nxt - self.snd_una) & (MAX_SEQ - 1)

    @property
    def effective_peer_window(self) -> int:
        return self.peer_window << self.peer_wscale

    @property
    def cwnd_trace_dropped(self) -> int:
        """Samples ``cwnd_trace`` has shed (taken - retained)."""
        return self.cwnd_samples - len(self.cwnd_trace)

    def throughput_bps(self, duration: float) -> float:
        """Receiver-side goodput over *duration*."""
        if duration <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / duration

    # ------------------------------------------------------------------
    # Packet construction
    # ------------------------------------------------------------------
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
        tcp.options = list(options) if options else []
        ip = IPv4Header.__new__(IPv4Header)
        ip.src = self.host.ip
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

    def _send_ack(self) -> None:
        self._segs_since_ack = 0
        self._cancel_delack()
        options = None
        if self._ooo:
            # Advertise up to 3 SACK blocks (RFC 2018) so the sender
            # can retransmit exactly the missing ranges.
            blocks = b"".join(
                struct.pack("!II", start, stop)
                for start, stop in self._ooo[:3]
            )
            options = [TCPOption(TCPOption.SACK, blocks)]
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
            # Only a segment without data can be a duplicate ACK (RFC
            # 5681 §2): the reverse stream of a two-way transfer repeats
            # the same ACK number on every data segment.
            self._handle_ack(tcp.ack, not payload)
        if payload:
            self._handle_data(tcp.seq, len(payload), flags & TCPFlags.PSH)
        if flags & TCPFlags.FIN:
            self._handle_fin(tcp.seq, len(payload))

    def accept_syn(self, packet: Packet) -> None:
        """Passive open: respond to a SYN (called by TCPListener)."""
        tcp = packet.tcp
        self.irs = tcp.seq
        self.rcv_nxt = (tcp.seq + 1) & (MAX_SEQ - 1)
        peer_mss = tcp.mss_option
        if peer_mss is not None:
            self.send_mss = min(self.local_mss, peer_mss)
        wscale = tcp.find_option(TCPOption.WINDOW_SCALE)
        if wscale is not None:
            self.peer_wscale = wscale.data[0]
        self.state = TCPState.SYN_RCVD
        self._send_control(
            flags=TCPFlags.SYN | TCPFlags.ACK,
            seq=self.iss,
            options=[TCPOption.mss(self.local_mss), TCPOption.window_scale(self.WINDOW_SCALE)],
        )
        self.snd_nxt = (self.iss + 1) & (MAX_SEQ - 1)
        self._arm_rto()

    def _complete_active_open(self, packet: Packet) -> None:
        tcp = packet.tcp
        self.irs = tcp.seq
        self.rcv_nxt = (tcp.seq + 1) & (MAX_SEQ - 1)
        self.snd_una = tcp.ack
        peer_mss = tcp.mss_option
        if peer_mss is not None:
            self.send_mss = min(self.local_mss, peer_mss)
        wscale = tcp.find_option(TCPOption.WINDOW_SCALE)
        if wscale is not None:
            self.peer_wscale = wscale.data[0]
        self.peer_window = tcp.window
        self._establish()
        self._send_ack()

    def _establish(self) -> None:
        if self.state == TCPState.ESTABLISHED:
            return
        self.state = TCPState.ESTABLISHED
        self.established_at = self.sim.now
        self.cc = self.cc_class(self.send_mss)
        self._cancel_rto()
        if self.on_established:
            self.on_established()
        self._pump()

    # ------------------------------------------------------------------
    # Sender path
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send as much queued data as cwnd and rwnd allow."""
        if self.state != TCPState.ESTABLISHED or self.cc is None:
            return
        window = min(int(self.cc.cwnd), self.peer_window << self.peer_wscale)
        # Locals for the window loop: flight size and pending bytes are
        # re-derived per iteration on the hot path otherwise.
        mask = MAX_SEQ - 1
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
        if self._fin_queued and self._pending_bytes == 0 and self.state == TCPState.ESTABLISHED:
            self._send_control(TCPFlags.FIN | TCPFlags.ACK, self.snd_nxt)
            self.snd_nxt = (self.snd_nxt + 1) & (MAX_SEQ - 1)
            self.state = TCPState.FIN_WAIT
        if self._rto_handle is None and self.snd_nxt != self.snd_una:
            self._arm_rto()

    def _transmit_segment(self, seq: int, length: int, retransmission: bool = False) -> None:
        packet = self._build(TCPFlags.ACK, seq, payload=_zeros(length))
        if not retransmission and self._rtt_sample is None:
            self._rtt_sample = ((seq + length) & (MAX_SEQ - 1), self.sim.now)
        self.host.send(packet, 40 + length)

    def _handle_ack(self, ack: int, bare: bool) -> None:
        """Process an ACK number; *bare* says its segment carried no data."""
        if _seq_lt(self.snd_una, ack) and not _seq_lt(self.snd_nxt, ack):
            acked = (ack - self.snd_una) & (MAX_SEQ - 1)
            self.snd_una = ack
            self.bytes_acked += acked
            if self._sacked:
                self._sack_prune()
            self._dupacks = 0
            if self._rtt_sample is not None:
                self._sample_rtt(ack)
            if self._in_recovery and not _seq_lt(ack, self._recover):
                self._in_recovery = False  # full ACK: recovery complete
            if self.cc is not None:
                if self._in_recovery:
                    # NewReno partial ACK: retransmit the next hole,
                    # unless that range is already in flight from an
                    # earlier retransmission (receivers ACK at finer
                    # granularity than we retransmit when a PXGW has
                    # resegmented the stream).
                    if not _seq_lt(self.snd_una, self._rtx_until):
                        self._retransmit_head()
                else:
                    self.cc.on_ack(acked, self.sim.now)
                self.cwnd_samples += 1
                self.cwnd_trace.append((self.sim.now, self.cc.cwnd))
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
            self.cwnd_samples += 1
            self.cwnd_trace.append((self.sim.now, self.cc.cwnd))
        self._retransmit_head()

    def _record_sack(self, tcp) -> None:
        """Fold the packet's SACK blocks into the scoreboard."""
        option = tcp.find_option(TCPOption.SACK)
        if option is None or len(option.data) % 8:
            return
        for offset in range(0, len(option.data), 8):
            start, stop = struct.unpack_from("!II", option.data, offset)
            self._sack_insert(start, stop)

    def _sack_rel(self, seq: int) -> int:
        return (seq - self.snd_una) & (MAX_SEQ - 1)

    def _sack_insert(self, start: int, stop: int) -> None:
        if self._sack_rel(stop) >= MAX_SEQ // 2:
            return  # stale block entirely below snd_una
        self._sacked.append((start, stop))
        self._sacked.sort(key=lambda block: self._sack_rel(block[0]))
        merged: List[tuple] = []
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
            hole = self._sack_rel(self._sacked[0][0])
            if 0 < hole < MAX_SEQ // 2:
                length = min(length, hole)
        if length <= 0:
            return
        self.retransmits += 1
        self._rtt_sample = None  # Karn's rule
        self._rtx_until = (self.snd_una + length) & (MAX_SEQ - 1)
        self._transmit_segment(self.snd_una, length, retransmission=True)
        self._arm_rto()

    def _sample_rtt(self, ack: int) -> None:
        target, sent_at = self._rtt_sample
        if _seq_lt(ack, target):
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
        if self.state == TCPState.SYN_SENT:
            self._send_control(
                TCPFlags.SYN,
                self.iss,
                options=[TCPOption.mss(self.local_mss),
                         TCPOption.window_scale(self.WINDOW_SCALE)],
            )
            self._arm_rto()
            return
        if self.state == TCPState.SYN_RCVD:
            self._send_control(TCPFlags.SYN | TCPFlags.ACK, self.iss,
                               options=[TCPOption.mss(self.local_mss),
                                        TCPOption.window_scale(self.WINDOW_SCALE)])
            self._arm_rto()
            return
        if self.flight_size == 0:
            return
        if self.cc is not None:
            self.cc.on_timeout(self.sim.now)
            self.cwnd_samples += 1
            self.cwnd_trace.append((self.sim.now, self.cc.cwnd))
        self._in_recovery = True
        self._recover = self.snd_nxt
        self._rtx_until = self.snd_una  # RTO: force a fresh retransmit
        self._retransmit_head()

    # ------------------------------------------------------------------
    # Receiver path
    # ------------------------------------------------------------------
    def _handle_data(self, seq: int, length: int, psh: bool) -> None:
        end = (seq + length) & (MAX_SEQ - 1)
        if not _seq_lt(self.rcv_nxt, end):  # entirely old
            self._send_ack()
            return
        if seq != self.rcv_nxt and _seq_lt(seq, self.rcv_nxt):
            # Partial overlap: keep only the new tail.
            seq = self.rcv_nxt
        if seq == self.rcv_nxt:
            self._deliver((end - seq) & (MAX_SEQ - 1))
            if self._ooo:
                self._drain_ooo()
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2 or psh or self._ooo:
                self._send_ack()
            else:
                self._schedule_delack()
        else:
            # Out of order: hold and dup-ACK immediately.
            self._store_ooo(seq, end)
            self._send_ack()

    def _deliver(self, length: int) -> None:
        self.rcv_nxt = (self.rcv_nxt + length) & (MAX_SEQ - 1)
        self.bytes_delivered += length
        if self.on_data:
            self.on_data(length)

    def _rel(self, seq: int) -> int:
        """Distance of *seq* ahead of rcv_nxt (modular)."""
        return (seq - self.rcv_nxt) & (MAX_SEQ - 1)

    def _store_ooo(self, seq: int, end: int) -> None:
        """Insert [seq, end) into the merged out-of-order interval set.

        Segment boundaries need not align between transmissions and
        retransmissions (window-limited senders emit sub-MSS tails), so
        reassembly must merge arbitrary overlapping byte ranges.
        """
        intervals = self._ooo
        intervals.append((seq, end))
        intervals.sort(key=lambda interval: self._rel(interval[0]))
        merged: List[tuple] = []
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

    def _handle_fin(self, seq: int, payload_len: int) -> None:
        fin_seq = (seq + payload_len) & (MAX_SEQ - 1)
        if fin_seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & (MAX_SEQ - 1)
            if self.state == TCPState.ESTABLISHED:
                self.state = TCPState.CLOSE_WAIT
            self._send_ack()

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

"""NIC/kernel offload engines: LRO, GRO, TSO/GSO, and UDP GRO.

These are *behavioural* models operating on real :class:`Packet`
objects: they decide what gets merged or split and emit byte-accurate
results.  Cycle costs are charged by their callers (the end-host
receiver model, the PXGW datapath) so the same engine can be priced as
NIC hardware (LRO: free per wire packet) or software (GRO: per-packet
merge cost).

The TCP coalescing rules follow Linux GRO semantics closely enough for
the paper's arguments to hold:

* only data segments of the same flow with exactly contiguous sequence
  numbers merge;
* SYN/FIN/RST/URG segments, pure ACKs, and IP fragments never merge;
* PSH flushes the context right after appending;
* out-of-order arrival flushes the existing context;
* a bounded number of concurrent merge contexts models NIC LRO session
  limits — eviction under flow interleaving is precisely what degrades
  aggregation in Figure 1c.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..packet import FlowKey, IPv4Header, Packet, TCPFlags, TCPHeader
from ..packet.builder import next_ip_id
from ..packet.packet import EMPTY_META

__all__ = ["TcpCoalescer", "UdpGroCoalescer", "segment_tcp", "MergeContext"]

#: Flags that must never be merged into a coalesced segment.
_NO_MERGE_FLAGS = TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST | TCPFlags.URG


class MergeContext:
    """An in-progress coalesce of one flow's contiguous segments."""

    __slots__ = ("first", "chunks", "bytes", "next_seq", "count", "created_at", "last_at",
                 "last_ack", "last_window", "psh_seen")

    def __init__(self, packet: Packet, now: float):
        self.first = packet
        self.chunks: List[bytes] = [packet.payload]
        self.bytes = len(packet.payload)
        self.next_seq = (packet.tcp.seq + len(packet.payload)) & 0xFFFFFFFF
        self.count = 1
        self.created_at = now
        self.last_at = now
        self.last_ack = packet.tcp.ack
        self.last_window = packet.tcp.window
        self.psh_seen = bool(packet.tcp.flags & TCPFlags.PSH)

    def append(self, packet: Packet, now: float) -> None:
        self.chunks.append(packet.payload)
        self.bytes += len(packet.payload)
        self.next_seq = (packet.tcp.seq + len(packet.payload)) & 0xFFFFFFFF
        self.count += 1
        self.last_at = now
        self.last_ack = packet.tcp.ack
        self.last_window = packet.tcp.window
        self.psh_seen = self.psh_seen or bool(packet.tcp.flags & TCPFlags.PSH)

    def to_packet(self) -> Packet:
        """Materialize the merged segment."""
        if self.count == 1:
            return self.first
        merged = self.first.copy()
        merged.payload = b"".join(self.chunks)
        merged.tcp.ack = self.last_ack
        merged.tcp.window = self.last_window
        if self.psh_seen:
            merged.tcp.flags |= TCPFlags.PSH
        merged.ip.total_length = merged.ip.header_len + merged.tcp.header_len + len(merged.payload)
        merged.annotate("merged_from", self.count)
        return merged


class TcpCoalescer:
    """LRO/GRO-style TCP coalescing with bounded contexts.

    ``max_bytes`` bounds the merged payload (64 KB for LRO/GRO, the
    iMTU payload budget inside PXGW).  ``max_contexts`` models the
    NIC's concurrent LRO session limit.
    """

    def __init__(self, max_bytes: int = 65535, max_contexts: int = 16):
        self.max_bytes = max_bytes
        self.max_contexts = max_contexts
        self._contexts: "OrderedDict[FlowKey, MergeContext]" = OrderedDict()
        self.stats_merged_packets = 0
        self.stats_flushes = 0
        self.stats_evictions = 0

    def __len__(self) -> int:
        return len(self._contexts)

    def feed(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Offer one packet; returns packets emitted downstream now."""
        if not packet.is_tcp or packet.is_fragment:
            return [packet]
        tcp = packet.tcp
        key = packet.flow_key()

        if tcp.flags & _NO_MERGE_FLAGS:
            # Control segments flush the flow's context and pass through.
            return self._flush_key(key) + [packet]

        if not packet.payload:
            # Pure ACKs pass through without disturbing merge state.
            return [packet]

        context = self._contexts.get(key)
        if context is not None:
            if (
                tcp.seq == context.next_seq
                and context.bytes + len(packet.payload) <= self.max_bytes
            ):
                context.append(packet, now)
                self._contexts.move_to_end(key)
                self.stats_merged_packets += 1
                if context.bytes >= self.max_bytes or tcp.psh:
                    return self._flush_key(key)
                return []
            # Out-of-order, overlap, or overflow: flush and restart.
            emitted = self._flush_key(key)
            emitted.extend(self._start(key, packet, now))
            return emitted

        return self._start(key, packet, now)

    def _start(self, key: FlowKey, packet: Packet, now: float) -> List[Packet]:
        emitted: List[Packet] = []
        if len(self._contexts) >= self.max_contexts:
            evicted_key, evicted = self._contexts.popitem(last=False)
            emitted.append(evicted.to_packet())
            self.stats_evictions += 1
            self.stats_flushes += 1
        context = MergeContext(packet, now)
        if packet.tcp.psh or len(packet.payload) >= self.max_bytes:
            emitted.append(context.to_packet())
            self.stats_flushes += 1
            return emitted
        self._contexts[key] = context
        return emitted

    def _flush_key(self, key: Optional[FlowKey]) -> List[Packet]:
        context = self._contexts.pop(key, None) if key is not None else None
        if context is None:
            return []
        self.stats_flushes += 1
        return [context.to_packet()]

    def flush(self, key: Optional[FlowKey] = None) -> List[Packet]:
        """Flush one flow's context, or all contexts when key is None."""
        if key is not None:
            return self._flush_key(key)
        emitted = [context.to_packet() for context in self._contexts.values()]
        self.stats_flushes += len(self._contexts)
        self._contexts.clear()
        return emitted

    def flush_older_than(self, now: float, max_age: float) -> List[Packet]:
        """Flush contexts idle longer than *max_age* (the LRO timer)."""
        stale = [
            key
            for key, context in self._contexts.items()
            if now - context.last_at >= max_age
        ]
        emitted = []
        for key in stale:
            emitted.extend(self._flush_key(key))
        return emitted


class UdpGroCoalescer:
    """Linux UDP_GRO semantics: merge same-flow datagrams of equal length.

    Only *consecutive* datagrams merge, all inner payloads except the
    last must share one length, and the bundle is delivered as a single
    buffer with the datagram size carried out-of-band (``gso_size``).
    PX-caravan generalizes this; the coalescer here is what modified
    end hosts use to consume caravan bundles cheaply.
    """

    def __init__(self, max_bytes: int = 65535, max_contexts: int = 16):
        self.max_bytes = max_bytes
        self.max_contexts = max_contexts
        self._contexts: "OrderedDict[FlowKey, List[Packet]]" = OrderedDict()

    def feed(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Offer one datagram; returns bundles emitted downstream."""
        if not packet.is_udp or packet.is_fragment:
            return [packet]
        key = packet.flow_key()
        held = self._contexts.get(key)
        if held is not None:
            segment_size = len(held[0].payload)
            if (
                len(packet.payload) <= segment_size
                and sum(len(p.payload) for p in held) + len(packet.payload) <= self.max_bytes
            ):
                held.append(packet)
                self._contexts.move_to_end(key)
                # A short datagram terminates the bundle (UDP_GRO rule).
                if len(packet.payload) < segment_size:
                    return self._flush_key(key)
                return []
            emitted = self._flush_key(key)
            emitted.extend(self._start(key, packet))
            return emitted
        return self._start(key, packet)

    def _start(self, key: FlowKey, packet: Packet) -> List[Packet]:
        emitted: List[Packet] = []
        if len(self._contexts) >= self.max_contexts:
            _evicted_key, evicted = self._contexts.popitem(last=False)
            emitted.append(self._bundle(evicted))
        self._contexts[key] = [packet]
        return emitted

    def _flush_key(self, key: FlowKey) -> List[Packet]:
        held = self._contexts.pop(key, None)
        if not held:
            return []
        return [self._bundle(held)]

    def flush(self) -> List[Packet]:
        """Flush every pending bundle (end of a NAPI poll)."""
        emitted = [self._bundle(held) for held in self._contexts.values()]
        self._contexts.clear()
        return emitted

    @staticmethod
    def _bundle(held: List[Packet]) -> Packet:
        if len(held) == 1:
            return held[0]
        merged = held[0].copy()
        merged.payload = b"".join(p.payload for p in held)
        merged.ip.total_length = merged.ip.header_len + 8 + len(merged.payload)
        merged.annotate("merged_from", len(held))
        merged.annotate("gso_size", len(held[0].payload))
        return merged


def segment_tcp(packet: Packet, mss: int) -> List[Packet]:
    """TSO/GSO: split a large TCP segment into MSS-sized segments.

    Sequence numbers advance per chunk; FIN/PSH ride only on the last
    segment and CWR only on the first, per the offload conventions.
    Fresh IP IDs are allocated for the tail segments, as NICs do.
    """
    if not packet.is_tcp:
        raise ValueError("segment_tcp needs a TCP packet")
    if mss <= 0:
        raise ValueError(f"bad MSS {mss}")
    if len(packet.payload) <= mss:
        return [packet]

    # Segments are constructed directly (header fields written once via
    # ``__new__``) rather than copy-then-mutate: on the split-heavy
    # downstream path this loop makes one packet per MSS chunk and was
    # the hottest site in the gateway profile.  Field values, flag
    # rules, and ``next_ip_id()`` draw order are identical to the old
    # copy-based loop, so wire bytes and digests are unchanged.
    segments: List[Packet] = []
    append = segments.append
    payload = packet.payload
    total = len(payload)
    tcp0 = packet.tcp
    ip0 = packet.ip
    base_seq = tcp0.seq
    base_flags = tcp0.flags
    header_len = ip0.header_len + tcp0.header_len
    meta = packet.meta
    timestamp = packet.timestamp
    fkey = packet._fkey  # seq/IP-ID changes never touch the flow key
    tail_flags = base_flags & ~(TCPFlags.FIN | TCPFlags.PSH)
    cursor = 0
    while cursor < total:
        chunk = payload[cursor : cursor + mss]
        chunk_len = len(chunk)
        is_first = cursor == 0
        flags = base_flags if cursor + chunk_len >= total else tail_flags
        if not is_first:
            flags &= ~TCPFlags.CWR
        tcp = TCPHeader.__new__(TCPHeader)
        tcp.src_port = tcp0.src_port
        tcp.dst_port = tcp0.dst_port
        tcp.seq = (base_seq + cursor) & 0xFFFFFFFF
        tcp.ack = tcp0.ack
        tcp.flags = flags
        tcp.window = tcp0.window
        tcp.checksum = tcp0.checksum
        tcp.urgent = tcp0.urgent
        tcp.options = tcp0.options
        ip = IPv4Header.__new__(IPv4Header)
        ip.src = ip0.src
        ip.dst = ip0.dst
        ip.protocol = ip0.protocol
        ip.total_length = header_len + chunk_len
        ip.identification = ip0.identification if is_first else next_ip_id()
        ip.dont_fragment = ip0.dont_fragment
        ip.more_fragments = ip0.more_fragments
        ip.fragment_offset = ip0.fragment_offset
        ip.ttl = ip0.ttl
        ip.tos = ip0.tos
        ip.options = ip0.options
        segment = Packet.__new__(Packet)
        segment.ip = ip
        segment.l4 = tcp
        segment.payload = chunk
        segment.timestamp = timestamp
        segment.meta = dict(meta) if meta else EMPTY_META
        segment._fkey = fkey
        segment._l4_shared = False
        append(segment)
        cursor += chunk_len
    return segments

"""PX-caravan: UDP tunneling that preserves datagram boundaries (§4.1).

UDP datagrams cannot be merged or split arbitrarily — QUIC and friends
encrypt and frame per-datagram — so PXGW *tunnels* several datagrams of
the same flow inside one large packet.  Per Figure 3:

* the **outer** IP/UDP headers carry the entire caravan length and the
  flow's addressing; the IP ToS field is set to ``PX_CARAVAN_TOS`` to
  mark the packet as tunneled;
* each **inner** record is a verbatim UDP header (carrying that
  datagram's own length) followed by its payload.

For UDP_GRO compatibility the merge engine only chains *consecutive*
datagrams (adjacent IP IDs) of one flow with equal payload sizes (the
final datagram may be shorter), exactly as the paper's prototype is
configured.  Receivers inside the b-network must understand the format;
:func:`decode_caravan` is what a modified host stack runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..packet import PX_CARAVAN_TOS, IPProto, Packet, UDPHeader
from ..packet.flow import FlowKey
from ..packet.packet import _UNSET
from ..packet.udp import _HEAD as _UDP_HEAD, UDP_HEADER_LEN
from .tcp_merge import AgeIndex

__all__ = [
    "is_caravan",
    "encode_caravan",
    "decode_caravan",
    "caravan_inner_count",
    "CaravanMergeEngine",
    "CaravanSplitEngine",
]


def is_caravan(packet: Packet) -> bool:
    """True when *packet* is a PX-caravan bundle."""
    return packet.is_udp and packet.ip.tos == PX_CARAVAN_TOS


def caravan_inner_count(packet: Packet) -> int:
    """Number of datagrams *packet* represents (1 for a plain packet).

    Counts only the complete inner records — a truncated caravan body
    yields the records that survived, which is what the conservation
    accounting needs when a damaged bundle is discarded.
    """
    if not is_caravan(packet):
        return 1
    cached = packet.meta.get("caravan_inner")
    if cached is not None:
        return cached
    body = packet.payload
    cursor = 0
    count = 0
    while cursor + UDP_HEADER_LEN <= len(body):
        inner = UDPHeader.unpack(body, cursor)
        if inner.length < UDP_HEADER_LEN or cursor + inner.length > len(body):
            break
        count += 1
        cursor += inner.length
    return max(count, 1)


def encode_caravan(packets: List[Packet]) -> Packet:
    """Bundle same-flow UDP *packets* into one caravan packet.

    The outer headers are cloned from the first datagram; inner records
    are each datagram's UDP header plus payload.
    """
    if not packets:
        raise ValueError("cannot build an empty caravan")
    first = packets[0]
    key = first.flow_key() if first._fkey is _UNSET else first._fkey
    for packet in packets:
        if packet.ip.protocol != IPProto.UDP:
            raise ValueError("caravans carry UDP only")
        member = packet._fkey
        if (packet.flow_key() if member is _UNSET else member) != key:
            raise ValueError("caravan members must share one flow")
    if len(packets) == 1:
        return first

    # Each record: what ``UDPHeader(src, dst).pack(payload)`` gives with no
    # addresses, then the payload; one join copies each payload byte once.
    src_port, dst_port = key.src_port, key.dst_port
    pack = _UDP_HEAD.pack
    chunks: List[bytes] = []
    for packet in packets:
        payload = packet.payload
        chunks += (pack(src_port, dst_port, UDP_HEADER_LEN + len(payload), 0), payload)
    body = b"".join(chunks)

    outer_ip = first.ip.copy(tos=PX_CARAVAN_TOS)
    outer_udp = UDPHeader(src_port=src_port, dst_port=dst_port,
                          length=UDP_HEADER_LEN + len(body))
    outer_ip.total_length = outer_ip.header_len + UDP_HEADER_LEN + len(body)
    caravan = Packet(ip=outer_ip, l4=outer_udp, payload=body)
    caravan.annotate("caravan_inner", len(packets))
    return caravan


def decode_caravan(packet: Packet) -> List[Packet]:
    """Unpack a caravan back into its original datagrams.

    Restored datagrams inherit the outer addressing, a cleared ToS, and
    consecutive IP IDs continuing from the outer header — which keeps a
    downstream UDP_GRO re-merge possible.
    """
    if not is_caravan(packet):
        return [packet]
    datagrams: List[Packet] = []
    body = packet.payload
    cursor = 0
    index = 0
    while cursor < len(body):
        if cursor + UDP_HEADER_LEN > len(body):
            raise ValueError("truncated caravan inner header")
        inner = UDPHeader.unpack(body, cursor)
        payload_len = inner.length - UDP_HEADER_LEN
        if payload_len < 0 or cursor + inner.length > len(body):
            raise ValueError("bad caravan inner length")
        payload = body[cursor + UDP_HEADER_LEN : cursor + inner.length]
        ip = packet.ip.copy(
            tos=0,
            identification=(packet.ip.identification + index) & 0xFFFF,
        )
        udp = UDPHeader(src_port=inner.src_port, dst_port=inner.dst_port,
                        length=inner.length)
        ip.total_length = ip.header_len + inner.length
        datagrams.append(Packet(ip=ip, l4=udp, payload=payload))
        cursor += inner.length
        index += 1
    if not datagrams:
        raise ValueError("empty caravan body")
    return datagrams


class _CaravanContext:
    """Datagrams accumulating toward one caravan."""

    __slots__ = ("packets", "bytes", "next_ip_id", "segment_size", "created_at", "last_at",
                 "age_seq", "touched")

    def __init__(self, packet: Packet, now: float):
        self.packets = [packet]
        self.bytes = UDP_HEADER_LEN + len(packet.payload)
        self.next_ip_id = (packet.ip.identification + 1) & 0xFFFF
        self.segment_size = len(packet.payload)
        self.created_at = now
        self.last_at = now


class CaravanMergeEngine:
    """Accumulates same-flow UDP datagrams into caravans.

    ``max_payload`` bounds the outer UDP payload (iMTU - 28).  The
    UDP_GRO compatibility rules (consecutive IP IDs, equal sizes,
    shorter final datagram terminates) are enforced per context.
    """

    def __init__(self, max_payload: int, max_contexts: int = 4096,
                 require_consecutive_ids: bool = True):
        if max_payload < 2 * UDP_HEADER_LEN:
            raise ValueError("max_payload too small for any caravan")
        self.max_payload = max_payload
        self.max_contexts = max_contexts
        self.require_consecutive_ids = require_consecutive_ids
        self._contexts: "OrderedDict[FlowKey, _CaravanContext]" = OrderedDict()
        self._ages = AgeIndex(self._contexts)
        self.built = 0
        self.evictions = 0
        # Running totals across contexts: the gateway checks pending
        # state once per packet (flush timer, NIC memory budget), so
        # these must not iterate the context table.
        self._pending_packets = 0
        self._pending_bytes = 0

    def __len__(self) -> int:
        return len(self._contexts)

    def feed(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Offer one datagram; returns caravans (or datagrams) to emit."""
        ip = packet.ip
        if (ip.protocol != IPProto.UDP or ip.more_fragments or ip.fragment_offset > 0
                or ip.tos == PX_CARAVAN_TOS):
            return [packet]
        key = packet._fkey  # the worker's key; derived only when fed directly
        if key is _UNSET:
            key = packet.flow_key()
        context = self._contexts.get(key)
        size = len(packet.payload)
        record_len = UDP_HEADER_LEN + size

        if context is not None:
            ip_id = ip.identification
            total = context.bytes + record_len
            segment_size = context.segment_size
            compatible = (
                total <= self.max_payload
                and size <= segment_size
                and (not self.require_consecutive_ids or ip_id == context.next_ip_id)
            )
            if compatible:
                context.packets.append(packet)
                context.bytes = total
                self._pending_packets += 1
                self._pending_bytes += record_len
                context.next_ip_id = (ip_id + 1) & 0xFFFF
                context.last_at = now
                self._contexts.move_to_end(key)
                ages = self._ages
                ages.seq = context.touched = ages.seq + 1
                # A shorter datagram ends the bundle (UDP_GRO rule); so
                # does running out of room for another full record.
                terminal = (
                    size < segment_size
                    or total + UDP_HEADER_LEN + segment_size > self.max_payload
                )
                if terminal:
                    return self._flush_key(key)
                return []
            emitted = self._flush_key(key)
            emitted.extend(self._start(key, packet, now))
            return emitted
        return self._start(key, packet, now)

    def _start(self, key: FlowKey, packet: Packet, now: float) -> List[Packet]:
        emitted: List[Packet] = []
        if len(self._contexts) >= self.max_contexts:
            _key, evicted = self._contexts.popitem(last=False)
            self._pending_packets -= len(evicted.packets)
            self._pending_bytes -= evicted.bytes
            emitted.append(self._materialize(evicted))
            self.evictions += 1
        context = _CaravanContext(packet, now)
        self._contexts[key] = context
        context.touched = self._ages.date(key, context)
        self._pending_packets += 1
        self._pending_bytes += context.bytes
        return emitted

    def _materialize(self, context: _CaravanContext) -> Packet:
        # The batch-wait stamp rides in ``meta`` (never serialized, never
        # digest-hashed): how long the context existed before shipping,
        # read by the span tracker's px_caravan_batch_wait_seconds.
        if len(context.packets) == 1:
            packet = context.packets[0]
            packet.annotate("caravan_first_at", context.created_at)
            return packet
        self.built += 1
        caravan = encode_caravan(context.packets)
        caravan.annotate("caravan_first_at", context.created_at)
        return caravan

    def _flush_key(self, key: FlowKey) -> List[Packet]:
        context = self._contexts.pop(key, None)
        if context is None:
            return []
        self._pending_packets -= len(context.packets)
        self._pending_bytes -= context.bytes
        return [self._materialize(context)]

    def flush(self) -> List[Packet]:
        """Flush everything pending."""
        emitted = [self._materialize(context) for context in self._contexts.values()]
        self._contexts.clear()
        self._ages.compact()
        self._pending_packets = 0
        self._pending_bytes = 0
        return emitted

    def flush_older_than(self, now: float, max_age: float) -> List[Packet]:
        """Flush contexts older than *max_age* (the merge-delay budget).

        Age-based so a slow steady stream cannot hold datagrams beyond
        the budget.
        """
        return self._ages.flush_expired(now, max_age, self._flush_key)

    def export_pending(self) -> List[Packet]:
        """Materialized copies of every pending context, non-destructive.

        The live contexts are untouched; a single-datagram context is
        exported as a *copy* so the checkpoint never aliases a packet
        the datapath may still emit.
        """
        out: List[Packet] = []
        for context in self._contexts.values():
            if len(context.packets) == 1:
                out.append(context.packets[0].copy())
            else:
                out.append(encode_caravan(list(context.packets)))
        return out

    def pending_packets(self) -> int:
        """Datagrams currently held in contexts (O(1))."""
        return self._pending_packets

    def pending_bytes(self) -> int:
        """Payload+record bytes currently held in contexts (O(1))."""
        return self._pending_bytes


class CaravanSplitEngine:
    """Opens caravans at the b-network egress back into datagrams."""

    def __init__(self):
        self.opened = 0

    def process(self, packet: Packet) -> List[Packet]:
        """Split if *packet* is a caravan; otherwise pass through."""
        if not is_caravan(packet):
            return [packet]
        self.opened += 1
        return decode_caravan(packet)

"""The central :class:`Packet` object passed through the whole library.

A packet holds a parsed IPv4 header, a parsed L4 header, and the L4
payload bytes.  ``to_bytes``/``from_bytes`` give byte-accurate wire
round-trips; helpers expose the lengths the cycle model and the MTU
logic depend on.

Representation notes:

* For TCP and UDP, ``payload`` holds the transport payload and ``l4``
  the parsed header.
* For ICMP, the message data lives inside :class:`ICMPMessage` itself
  and ``payload`` stays empty.
* For IP fragments with a nonzero offset (and for all fragments after
  :func:`repro.packet.fragment.fragment_packet`), ``l4`` is ``None``
  and ``payload`` carries that fragment's slice of the original L4
  datagram.
"""

from __future__ import annotations

import struct
from typing import Optional, Union

from .checksum import ones_complement_sum
from .ethernet import wire_bytes_for_payload
from .flow import FlowKey
from .icmp import ICMPMessage
from .ip import IPProto, IPv4Header
from .tcp import TCPHeader, _pack_options, _unpack_options
from .udp import UDPHeader

__all__ = ["Packet", "L4Header"]

L4Header = Union[TCPHeader, UDPHeader, ICMPMessage]


class _UNSET:
    """Marks a flow key as not yet computed (None is a valid key); pickles by name."""


class _EmptyMeta(dict):
    """A ``dict`` that stays empty; pickle and ``deepcopy`` keep its identity."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("EMPTY_META is shared by every un-annotated packet; use Packet.annotate")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return "EMPTY_META"


#: The ``meta`` of every packet without annotations.
EMPTY_META = _EmptyMeta()

#: An option-less IPv4 header and the fixed TCP (40 B in all) or UDP
#: (28 B) header behind it, packed and parsed as one block: the two
#: headers' own formats, concatenated.
_TCP_BLOCK = struct.Struct("!BBHHHBBHIIHHIIBBHHH")
_UDP_BLOCK = struct.Struct("!BBHHHBBHIIHHHH")


class Packet:
    """One IPv4 packet moving through the simulated network.

    ``__slots__`` keeps the object small and attribute access fast —
    every link, router, and gateway stat touches a handful of fields
    per packet, which makes this the hottest object in the library.

    ``meta`` holds annotations (e.g. ``{"spliced": True}``).  Without
    any it is the shared, read-only :data:`EMPTY_META`; write through
    :meth:`annotate`, which makes a private dict on the first write.
    """

    __slots__ = ("ip", "l4", "payload", "timestamp", "meta", "_fkey", "_l4_shared")

    def __init__(
        self,
        ip: IPv4Header,
        l4: Optional[L4Header] = None,
        payload: bytes = b"",
        timestamp: float = 0.0,
        meta: Optional[dict] = None,
    ):
        self.ip = ip
        self.l4 = l4
        self.payload = payload
        #: Simulation timestamp of creation/last transmission (seconds).
        self.timestamp = timestamp
        #: Annotations; :data:`EMPTY_META` until :meth:`annotate`.
        self.meta = EMPTY_META if meta is None else meta
        #: Cached 5-tuple (lazily computed; survives copy/fork because
        #: no code path rewrites addresses or ports in place).
        self._fkey = _UNSET
        #: True while ``l4`` may be aliased by another packet (see
        #: :meth:`fork`); in-place header mutation must go through
        #: :meth:`own_l4` first.
        self._l4_shared = False

    # ------------------------------------------------------------------
    # Length accounting
    # ------------------------------------------------------------------
    @property
    def l4_header_len(self) -> int:
        """Length of the serialized L4 header (0 for bare fragments)."""
        l4 = self.l4
        if l4 is None:
            return 0
        if isinstance(l4, TCPHeader):
            return l4.header_len
        return 8  # UDP or ICMP header

    @property
    def l4_payload_len(self) -> int:
        """Bytes of application payload carried."""
        l4 = self.l4
        if isinstance(l4, ICMPMessage):
            return len(l4.payload)
        return len(self.payload)

    @property
    def total_len(self) -> int:
        """The IP total length this packet serializes to."""
        l4 = self.l4
        # 20 + options is ``ip.header_len`` inlined: this property runs
        # several times per link traversal, so it skips the nested
        # property dispatch.  The TCP no-options case (every data
        # segment and plain ACK) additionally skips the header_len
        # property, which would re-derive the constant.
        header = 20 + len(self.ip.options)
        if isinstance(l4, TCPHeader):
            if not l4.options:
                return header + 20 + len(self.payload)
            return header + l4.header_len + len(self.payload)
        if l4 is None:
            return header + len(self.payload)
        if isinstance(l4, UDPHeader):
            return header + 8 + len(self.payload)
        return header + 8 + len(l4.payload)

    @property
    def wire_len(self) -> int:
        """Bytes this packet occupies on an Ethernet wire (with framing)."""
        return wire_bytes_for_payload(self.total_len)

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def is_tcp(self) -> bool:
        return self.ip.protocol == IPProto.TCP

    @property
    def is_udp(self) -> bool:
        return self.ip.protocol == IPProto.UDP

    @property
    def is_icmp(self) -> bool:
        return self.ip.protocol == IPProto.ICMP

    @property
    def is_fragment(self) -> bool:
        return self.ip.is_fragment

    @property
    def tcp(self) -> TCPHeader:
        """The TCP header; raises if this is not a parsed TCP packet."""
        if not isinstance(self.l4, TCPHeader):
            raise TypeError("packet has no parsed TCP header")
        return self.l4

    @property
    def udp(self) -> UDPHeader:
        """The UDP header; raises if this is not a parsed UDP packet."""
        if not isinstance(self.l4, UDPHeader):
            raise TypeError("packet has no parsed UDP header")
        return self.l4

    @property
    def icmp(self) -> ICMPMessage:
        """The ICMP message; raises if this is not an ICMP packet."""
        if not isinstance(self.l4, ICMPMessage):
            raise TypeError("packet has no parsed ICMP message")
        return self.l4

    def flow_key(self) -> Optional[FlowKey]:
        """The transport 5-tuple, or None when ports are unavailable.

        Computed once and cached: the classifier, RSS dispatch, flow
        table, and merge engines each ask for the key of the same
        packet, and nothing in the library rewrites the addressing
        fields of a live packet.
        """
        key = self._fkey
        if key is _UNSET:
            l4 = self.l4
            if isinstance(l4, (TCPHeader, UDPHeader)):
                ip = self.ip
                # tuple.__new__ builds the key without the Python frame
                # that FlowKey(...) and FlowKey._make run.
                key = tuple.__new__(
                    FlowKey, (ip.protocol, ip.src, l4.src_port, ip.dst, l4.dst_port))
            else:
                key = None
            self._fkey = key
        return key

    def annotate(self, key: str, value) -> None:
        """Record one annotation in ``meta``, making it a private dict first."""
        meta = self.meta
        if meta is EMPTY_META:
            self.meta = {key: value}
        else:
            meta[key] = value

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to wire bytes (IP header onward), with checksums.

        An option-less IPv4 header and the TCP or UDP header behind it
        are one block: every field and both checksums are summed as
        integers here and packed by one ``struct`` call, so the payload
        is read once (the L4 checksum) and copied once.  Anything else
        goes through :meth:`_pack_headers`, header by header.  So does a
        block that does not pack (a field out of range or not an
        integer, an oversize packet, a fragment offset past 13 bits):
        nothing is written back before the block packs, so the
        per-header path raises its own error with its own side effects.
        """
        ip = self.ip
        l4 = self.l4
        cls = l4.__class__
        if ip.options or not (cls is TCPHeader or cls is UDPHeader):
            return self._pack_headers()
        payload = self.payload
        src = ip.src
        dst = ip.dst
        try:
            fragment_offset = ip.fragment_offset
            if fragment_offset > 0x1FFF:
                return self._pack_headers()
            tos = ip.tos
            identification = ip.identification
            flags_frag = (
                (0x4000 if ip.dont_fragment else 0)
                | (0x2000 if ip.more_fragments else 0)
                | fragment_offset
            )
            ttl = ip.ttl
            protocol = ip.protocol
            # The IPv4 header's words but its total length, added as
            # IPv4Header.pack adds them (version/IHL 0x45).  Its checksum
            # ``-words % 0xFFFF`` is internet_checksum(b"", words) for a
            # positive sum, and a header that packs sums above 0x4500.
            ip_words = (
                (0x4500 | tos) + identification + flags_frag + (ttl << 8 | protocol) + src + dst
            )
            sport = l4.src_port
            dport = l4.dst_port
            if cls is TCPHeader:
                options = l4.options
                opts = _pack_options(options) if options else b""
                l4_len = 20 + len(opts)
                seq = l4.seq & 0xFFFFFFFF
                ack = l4.ack & 0xFFFFFFFF
                offset = l4_len << 2  # data offset in the high nibble of its byte
                flags = l4.flags
                window = l4.window
                urgent = l4.urgent
                segment = l4_len + len(payload)
                if src or dst:
                    fields = (
                        src + dst + IPProto.TCP + segment
                        + sport + dport + seq + ack + (offset << 8 | flags)
                        + window + urgent
                    )
                    if opts:
                        fields += int.from_bytes(opts, "big")
                    checksum = ~ones_complement_sum(payload, fields) & 0xFFFF
                else:
                    checksum = 0
                total_length = 20 + segment
                head = _TCP_BLOCK.pack(
                    0x45, tos, total_length, identification, flags_frag, ttl, protocol,
                    -(ip_words + total_length) % 0xFFFF, src, dst,
                    sport, dport, seq, ack, offset, flags, window, checksum, urgent,
                )
            else:
                opts = b""
                segment = 8 + len(payload)
                if src or dst:
                    checksum = (0xFFFF - ones_complement_sum(
                        payload, src + dst + IPProto.UDP + segment + sport + dport + segment,
                    )) or 0xFFFF
                else:
                    checksum = 0
                total_length = 20 + segment
                head = _UDP_BLOCK.pack(
                    0x45, tos, total_length, identification, flags_frag, ttl, protocol,
                    -(ip_words + total_length) % 0xFFFF, src, dst,
                    sport, dport, segment, checksum,
                )
                l4.length = segment
        except (struct.error, TypeError):
            return self._pack_headers()
        l4.checksum = checksum
        ip.total_length = total_length
        return b"".join((head, opts, payload)) if opts else head + payload

    def _pack_headers(self) -> bytes:
        """Serialize header by header: each header's own ``pack``, joined."""
        ip = self.ip
        l4 = self.l4
        payload = self.payload
        cls = l4.__class__
        if cls is TCPHeader or cls is UDPHeader:
            head = l4.pack(payload, ip.src, ip.dst)
        elif cls is ICMPMessage:
            head = l4.pack_header()
            payload = l4.payload
        else:
            head = b""
        return b"".join((ip.pack(len(head) + len(payload)), head, payload))

    @classmethod
    def from_bytes(cls, data: bytes, verify: bool = True) -> "Packet":
        """Parse wire bytes into a Packet.

        ``ip.total_length`` must fit in *data* (bytes past it are link
        padding and ignored) and a UDP ``length`` must equal the IP
        payload, so what parses is self-consistent: ``total_len`` and
        the headers' own length fields agree.

        Fragments, the first one included, keep their bytes unparsed
        in ``payload`` with ``l4`` set to ``None``.

        An unfragmented TCP or UDP packet with an option-less IPv4
        header is parsed as one block (one ``unpack_from``), with the
        per-header checks in the per-header order; anything else
        parses header by header.
        """
        size = len(data)
        if size >= 28 and data[0] == 0x45 and not (data[6] & 0x3F or data[7]):
            protocol = data[9]
            tcp = protocol == IPProto.TCP
            if tcp and size >= 40 or protocol == IPProto.UDP:
                if tcp:
                    (
                        _, tos, end, identification, flags_frag, ttl, _, checksum, src, dst,
                        sport, dport, seq, ack, offset_byte, flags, window, l4_checksum, urgent,
                    ) = _TCP_BLOCK.unpack_from(data)
                else:
                    (
                        _, tos, end, identification, flags_frag, ttl, _, checksum, src, dst,
                        sport, dport, udp_length, l4_checksum,
                    ) = _UDP_BLOCK.unpack_from(data)
                if verify and (
                    (0x4500 | tos) + end + identification + flags_frag
                    + (ttl << 8 | protocol) + checksum + src + dst
                ) % 0xFFFF:
                    raise ValueError("IPv4 header checksum mismatch")
                if end > size:
                    raise ValueError(
                        f"truncated packet: total length {end} exceeds the {size} bytes given"
                    )
                if end < 20:
                    raise ValueError(f"IPv4 total length {end} shorter than its 20-byte header")
                if tcp:
                    if end < 40:
                        raise ValueError("truncated TCP header")
                    l4_len = (offset_byte >> 4) * 4
                    if l4_len < 20 or end - 20 < l4_len:
                        raise ValueError("bad TCP data offset")
                    l4 = TCPHeader.__new__(TCPHeader)
                    l4.seq = seq
                    l4.ack = ack
                    l4.flags = flags
                    l4.window = window
                    l4.urgent = urgent
                    l4.options = () if l4_len == 20 else _unpack_options(data[40 : 20 + l4_len])
                else:
                    if end < 28:
                        raise ValueError("truncated UDP header")
                    if udp_length < 8:
                        raise ValueError("bad UDP length")
                    if udp_length != end - 20:
                        raise ValueError(
                            f"UDP length {udp_length} disagrees with the "
                            f"{end - 20}-byte IP payload"
                        )
                    l4 = UDPHeader.__new__(UDPHeader)
                    l4.length = udp_length
                    l4_len = 8
                l4.src_port = sport
                l4.dst_port = dport
                l4.checksum = l4_checksum
                ip = IPv4Header.__new__(IPv4Header)
                ip.src = src
                ip.dst = dst
                ip.protocol = protocol
                ip.total_length = end
                ip.identification = identification
                ip.dont_fragment = (flags_frag & 0x4000) != 0
                ip.more_fragments = False
                ip.fragment_offset = 0
                ip.ttl = ttl
                ip.tos = tos
                ip.options = b""
                packet = cls.__new__(cls)
                packet.ip = ip
                packet.l4 = l4
                packet.payload = bytes(data[20 + l4_len : end])
                packet.timestamp = 0.0
                packet.meta = EMPTY_META
                packet._fkey = _UNSET
                packet._l4_shared = False
                return packet
        ip = IPv4Header.unpack(data, verify=verify)
        start = ip.header_len
        end = ip.total_length
        if end > len(data):
            raise ValueError(
                f"truncated packet: total length {end} exceeds the {len(data)} bytes given"
            )
        if end < start:
            raise ValueError(f"IPv4 total length {end} shorter than its {start}-byte header")
        if end < len(data):
            data = data[:end]
        # A fragment (first ones included) or a protocol the library does
        # not model keeps its bytes unparsed; no keyword ``__init__`` call.
        l4, hdr_len = None, 0
        if not (ip.fragment_offset or ip.more_fragments):
            protocol = ip.protocol
            if protocol == IPProto.TCP:
                l4, hdr_len = TCPHeader.unpack(data, start)
            elif protocol == IPProto.UDP:
                l4 = UDPHeader.unpack(data, start)
                if l4.length != end - start:
                    raise ValueError(
                        f"UDP length {l4.length} disagrees with the "
                        f"{end - start}-byte IP payload"
                    )
                hdr_len = 8
            elif protocol == IPProto.ICMP:
                return cls(ip=ip, l4=ICMPMessage.unpack(data, start))
        packet = cls.__new__(cls)
        packet.ip = ip
        packet.l4 = l4
        packet.payload = bytes(data[start + hdr_len :])
        packet.timestamp = 0.0
        packet.meta = EMPTY_META
        packet._fkey = _UNSET
        packet._l4_shared = False
        return packet

    @staticmethod
    def _copy_l4(l4: Optional[L4Header]) -> Optional[L4Header]:
        if isinstance(l4, TCPHeader):
            return l4.copy()
        if isinstance(l4, UDPHeader):
            return UDPHeader(l4.src_port, l4.dst_port, l4.length, l4.checksum)
        if isinstance(l4, ICMPMessage):
            return ICMPMessage(l4.icmp_type, l4.code, l4.rest, l4.payload)
        return None

    def copy(self) -> "Packet":
        """Return a structural copy safe to mutate independently."""
        new = Packet.__new__(Packet)
        new.ip = self.ip.copy()
        new.l4 = self._copy_l4(self.l4)
        new.payload = self.payload
        new.timestamp = self.timestamp
        new.meta = dict(self.meta) if self.meta else EMPTY_META
        new._fkey = self._fkey
        new._l4_shared = False
        return new

    def fork(self) -> "Packet":
        """A cheap forwarding copy: private IP header, shared L4/payload.

        Forwarding mutates only the IP header (TTL, and
        ``total_length`` during serialization), so the per-hop copy a
        router makes need not duplicate the L4 header or its options.
        The L4 header becomes copy-on-write for *both* packets: any
        later in-place mutation must go through :meth:`own_l4`, which
        materializes a private header.  ``payload`` is immutable bytes
        and always safely shared.
        """
        new = Packet.__new__(Packet)
        # IPv4Header.copy() without the call: one fork per router hop.
        old_ip = self.ip
        new.ip = ip = IPv4Header.__new__(IPv4Header)
        ip.src = old_ip.src
        ip.dst = old_ip.dst
        ip.protocol = old_ip.protocol
        ip.total_length = old_ip.total_length
        ip.identification = old_ip.identification
        ip.dont_fragment = old_ip.dont_fragment
        ip.more_fragments = old_ip.more_fragments
        ip.fragment_offset = old_ip.fragment_offset
        ip.ttl = old_ip.ttl
        ip.tos = old_ip.tos
        ip.options = old_ip.options
        new.l4 = self.l4
        new.payload = self.payload
        new.timestamp = self.timestamp
        new.meta = dict(self.meta) if self.meta else EMPTY_META
        new._fkey = self._fkey
        new._l4_shared = self._l4_shared = self.l4 is not None
        return new

    def own_l4(self) -> Optional[L4Header]:
        """The L4 header, made private first if it is shared (CoW).

        Call before mutating ``l4`` in place on a packet that may have
        been :meth:`fork`-ed (e.g. the MSS clamp rewriting a SYN's
        options).  The cached flow key survives: ports and addresses
        are preserved by the materialization.
        """
        l4 = self.l4
        if l4 is not None and self._l4_shared:
            l4 = self._copy_l4(l4)
            self.l4 = l4
            self._l4_shared = False
        return l4

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = {IPProto.TCP: "TCP", IPProto.UDP: "UDP", IPProto.ICMP: "ICMP"}.get(
            self.ip.protocol, str(self.ip.protocol)
        )
        frag = ""
        if self.is_fragment:
            frag = f" frag(off={self.ip.fragment_offset * 8}, mf={self.ip.more_fragments})"
        return f"<Packet {proto} len={self.total_len}{frag}>"

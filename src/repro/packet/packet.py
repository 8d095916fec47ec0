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

from typing import Optional, Union

from .ethernet import wire_bytes_for_payload
from .flow import FlowKey
from .icmp import ICMPMessage
from .ip import IPProto, IPv4Header
from .tcp import TCPHeader
from .udp import UDPHeader

__all__ = ["Packet", "L4Header"]

L4Header = Union[TCPHeader, UDPHeader, ICMPMessage]

#: Sentinel marking a flow key as not-yet-computed (None is a valid key).
_UNSET = object()


class Packet:
    """One IPv4 packet moving through the simulated network.

    ``__slots__`` keeps the object small and attribute access fast —
    every link, router, and gateway stat touches a handful of fields
    per packet, which makes this the hottest object in the library.
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
        #: Free-form annotations (e.g. ``{"hairpin": True}``); kept sparse.
        self.meta = {} if meta is None else meta
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
                key = FlowKey(
                    self.ip.protocol,
                    self.ip.src,
                    l4.src_port,
                    self.ip.dst,
                    l4.dst_port,
                )
            else:
                key = None
            self._fkey = key
        return key

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to wire bytes (IP header onward), with checksums.

        The headers are packed with their checksums already in place,
        so the payload is read once (the L4 checksum) and copied once
        (the final join).
        """
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
        """
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
        packet.meta = {}
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
        new.meta = dict(self.meta)
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
        new.meta = dict(self.meta)
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

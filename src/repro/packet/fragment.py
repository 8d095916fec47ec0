"""IPv4 fragmentation and reassembly.

Routers call :func:`fragment_packet` when a datagram exceeds the egress
MTU and DF is clear; F-PMTUD's destination daemon uses
:class:`Reassembler` both to rebuild datagrams and — crucially — to
observe the *sizes* of the fragments that arrived, which is the
information the prober turns into a PMTU estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ip import IPv4Header
from .packet import Packet

__all__ = ["FragmentationNeeded", "fragment_packet", "Reassembler", "ReassemblyKey"]

#: Fragment offsets are expressed in 8-byte units.
FRAGMENT_UNIT = 8
#: Default reassembly timeout, matching common OS defaults (seconds).
DEFAULT_REASSEMBLY_TIMEOUT = 30.0


class FragmentationNeeded(Exception):
    """Raised when a DF packet exceeds the egress MTU.

    Routers translate this into an ICMP 'fragmentation needed' message
    (or silently drop it, when modelling an ICMP blackhole).
    """

    def __init__(self, packet: Packet, mtu: int):
        super().__init__(f"packet of {packet.total_len} B exceeds MTU {mtu} with DF set")
        self.packet = packet
        self.mtu = mtu


def _l4_bytes(packet: Packet) -> bytes:
    """Serialize the L4 portion (header + payload) of *packet*."""
    if packet.l4 is None:
        return packet.payload
    wire = packet.to_bytes()
    return wire[packet.ip.header_len :]


def fragment_packet(packet: Packet, mtu: int) -> List[Packet]:
    """Split *packet* into fragments that each fit in *mtu* bytes.

    Returns ``[packet]`` unchanged if it already fits.  Raises
    :class:`FragmentationNeeded` when DF is set and it does not fit.
    Offsets are kept multiples of 8 as the wire format requires, so the
    usable payload per fragment is ``(mtu - header) & ~7`` — this is
    exactly why F-PMTUD observes e.g. 996-byte fragments through a
    1000-byte-MTU hop.
    """
    if packet.total_len <= mtu:
        return [packet]
    if packet.ip.dont_fragment:
        raise FragmentationNeeded(packet, mtu)

    header_len = packet.ip.header_len
    max_payload = (mtu - header_len) & ~(FRAGMENT_UNIT - 1)
    if max_payload <= 0:
        raise ValueError(f"MTU {mtu} cannot carry any payload past a {header_len} B header")

    body = _l4_bytes(packet)
    base_offset = packet.ip.fragment_offset  # re-fragmenting a fragment is legal
    last_had_mf = packet.ip.more_fragments

    fragments: List[Packet] = []
    cursor = 0
    while cursor < len(body):
        chunk = body[cursor : cursor + max_payload]
        is_last = cursor + len(chunk) >= len(body)
        header = packet.ip.copy(
            more_fragments=(not is_last) or last_had_mf,
            fragment_offset=base_offset + cursor // FRAGMENT_UNIT,
        )
        header.total_length = header.header_len + len(chunk)
        fragments.append(
            Packet(
                ip=header,
                l4=None,
                payload=chunk,
                timestamp=packet.timestamp,
                meta=dict(packet.meta) if packet.meta else None,
            )
        )
        cursor += len(chunk)
    return fragments


class ReassemblyKey(Tuple[int, int, int, int]):
    """Datagram identity: (src, dst, protocol, identification)."""

    __slots__ = ()

    @classmethod
    def of(cls, header: IPv4Header) -> "ReassemblyKey":
        return cls((header.src, header.dst, header.protocol, header.identification))


@dataclass
class _PartialDatagram:
    """Fragments collected so far for one datagram."""

    first_seen: float
    pieces: Dict[int, bytes] = field(default_factory=dict)  # byte offset -> data
    total_len: Optional[int] = None  # known once the MF=0 fragment arrives
    header: Optional[IPv4Header] = None  # from the offset-0 fragment
    fragment_sizes: List[int] = field(default_factory=list)

    def add(self, packet: Packet) -> None:
        offset = packet.ip.fragment_offset * FRAGMENT_UNIT
        data = packet.payload
        if offset not in self.pieces:
            self.fragment_sizes.append(packet.total_len)
        self.pieces[offset] = data
        if not packet.ip.more_fragments:
            self.total_len = offset + len(data)
        if packet.ip.fragment_offset == 0:
            self.header = packet.ip

    def complete(self) -> bool:
        if self.total_len is None or self.header is None:
            return False
        covered = 0
        for offset in sorted(self.pieces):
            if offset > covered:
                return False  # hole
            covered = max(covered, offset + len(self.pieces[offset]))
        return covered >= self.total_len

    def assemble(self) -> bytes:
        out = bytearray(self.total_len or 0)
        for offset, data in self.pieces.items():
            out[offset : offset + len(data)] = data
        return bytes(out)


class Reassembler:
    """Stateful IPv4 reassembly with timeout-based garbage collection."""

    def __init__(self, timeout: float = DEFAULT_REASSEMBLY_TIMEOUT):
        self.timeout = timeout
        self._partial: Dict[ReassemblyKey, _PartialDatagram] = {}
        #: Fragment sizes of the most recently completed datagram;
        #: consumed by the F-PMTUD daemon.
        self.last_fragment_sizes: List[int] = []

    def __len__(self) -> int:
        return len(self._partial)

    def add(self, packet: Packet, now: float = 0.0) -> Optional[Packet]:
        """Feed one packet; returns the full datagram when complete.

        Unfragmented packets pass straight through (with their own size
        recorded as the single 'fragment').
        """
        self._expire(now)
        if not packet.is_fragment:
            self.last_fragment_sizes = [packet.total_len]
            return packet

        key = ReassemblyKey.of(packet.ip)
        partial = self._partial.get(key)
        if partial is None:
            partial = _PartialDatagram(first_seen=now)
            self._partial[key] = partial
        partial.add(packet)
        if not partial.complete():
            return None

        del self._partial[key]
        self.last_fragment_sizes = sorted(partial.fragment_sizes, reverse=True)
        header = partial.header.copy(more_fragments=False, fragment_offset=0)
        body = partial.assemble()
        header.total_length = header.header_len + len(body)
        wire = header.pack() + body
        return Packet.from_bytes(wire, verify=False)

    def _expire(self, now: float) -> None:
        stale = [
            key
            for key, partial in self._partial.items()
            if now - partial.first_seen > self.timeout
        ]
        for key in stale:
            del self._partial[key]

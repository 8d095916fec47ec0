"""ICMP messages used by classical PMTUD (RFC 1191) and traceroute-style probing.

Only the message types the reproduction needs are modelled: echo
request/reply, destination-unreachable (specifically *fragmentation
needed*, which carries the next-hop MTU), and time-exceeded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum
from .ip import field_range_error

__all__ = ["ICMPType", "ICMPMessage", "ICMP_HEADER_LEN"]

ICMP_HEADER_LEN = 8

_HEAD = struct.Struct("!BBHI")
_WIDTHS = (("icmp_type", 8), ("code", 8), ("rest", 32))


class ICMPType:
    """ICMP message types and the codes the library uses."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11

    # Destination-unreachable codes.
    CODE_PORT_UNREACHABLE = 3
    CODE_FRAG_NEEDED = 4


@dataclass
class ICMPMessage:
    """A minimal ICMP message.

    For ``DEST_UNREACHABLE/CODE_FRAG_NEEDED`` the low 16 bits of the
    rest-of-header word carry the next-hop MTU (RFC 1191 §4); *payload*
    carries the offending IP header + 8 bytes, as routers echo back.
    """

    icmp_type: int = ICMPType.ECHO_REQUEST
    code: int = 0
    rest: int = 0
    payload: bytes = b""

    @classmethod
    def frag_needed(cls, next_hop_mtu: int, original: bytes = b"") -> "ICMPMessage":
        """Build the 'fragmentation needed and DF set' message."""
        return cls(
            icmp_type=ICMPType.DEST_UNREACHABLE,
            code=ICMPType.CODE_FRAG_NEEDED,
            rest=next_hop_mtu & 0xFFFF,
            payload=original[:28],
        )

    @classmethod
    def echo_request(cls, ident: int, seq: int, data: bytes = b"") -> "ICMPMessage":
        """Build an echo request."""
        return cls(ICMPType.ECHO_REQUEST, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), data)

    @classmethod
    def echo_reply(cls, request: "ICMPMessage") -> "ICMPMessage":
        """Build the reply matching an echo request."""
        return cls(ICMPType.ECHO_REPLY, 0, request.rest, request.payload)

    @property
    def next_hop_mtu(self) -> int:
        """The MTU hint in a frag-needed message."""
        return self.rest & 0xFFFF

    @property
    def is_frag_needed(self) -> bool:
        """True for 'fragmentation needed and DF set'."""
        return (
            self.icmp_type == ICMPType.DEST_UNREACHABLE
            and self.code == ICMPType.CODE_FRAG_NEEDED
        )

    def pack_header(self) -> bytes:
        """Serialize the 8-byte header, with the checksum over header and payload."""
        checksum = internet_checksum(
            self.payload, (self.icmp_type << 8 | self.code) + self.rest
        )
        try:
            return _HEAD.pack(self.icmp_type, self.code, checksum, self.rest)
        except struct.error:
            raise field_range_error(self, _WIDTHS) from None

    def pack(self) -> bytes:
        """Serialize with checksum."""
        return self.pack_header() + self.payload

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "ICMPMessage":
        """Parse an ICMP message occupying *data* from *offset* to its end."""
        if len(data) - offset < ICMP_HEADER_LEN:
            raise ValueError("truncated ICMP message")
        icmp_type, code, _checksum, rest = _HEAD.unpack_from(data, offset)
        return cls(icmp_type, code, rest, bytes(data[offset + ICMP_HEADER_LEN :]))

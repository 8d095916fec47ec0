"""IPv4 header encode/decode with checksum support.

The header carries the fields PXGW and F-PMTUD depend on: the DF/MF
flags and fragment offset (fragmentation is F-PMTUD's probe signal), the
identification field (UDP_GRO-compatible caravan merging keys on
consecutive IP IDs), and the ToS byte (marks PX-caravan packets).
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum, verify_checksum

__all__ = ["IPProto", "IPv4Header", "IP_HEADER_LEN", "IP_MAX_PACKET", "PX_CARAVAN_TOS"]

_HEAD = struct.Struct("!BBHHHBBHII")
_WIDTHS = (
    ("tos", 8), ("total_length", 16), ("identification", 16),
    ("fragment_offset", 13), ("ttl", 8), ("protocol", 8),
    ("src", 32), ("dst", 32),
)

IP_HEADER_LEN = 20
#: Maximum IPv4 packet size (16-bit total length).
IP_MAX_PACKET = 65535
#: ToS value PXGW writes into caravan outer headers (DSCP pool-3 codepoint).
PX_CARAVAN_TOS = 0x04


def field_range_error(header, widths) -> ValueError:
    """The error for the first field of *header* that overflows its wire width.

    The ``pack`` methods call this only after ``struct`` has refused the
    header, so the range checks cost nothing on the success path;
    *widths* is the header's ``(field name, bits)`` table.
    """
    for name, bits in widths:
        value = getattr(header, name)
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            return ValueError(
                f"{type(header).__name__}.{name}={value!r} does not fit in {bits} bits"
            )
    return ValueError(f"{type(header).__name__} field out of range")


class IPProto:
    """IP protocol numbers used by the library."""

    ICMP = 1
    TCP = 6
    UDP = 17


class IPv4Header:
    """A parsed IPv4 header (options supported as an opaque blob).

    A hand-rolled ``__slots__`` class rather than a dataclass: header
    construction and :meth:`copy` sit on the per-packet fast path
    (every build, fork, and forward makes one), and skipping the
    per-instance ``__dict__`` both shrinks the object and speeds field
    access.  Equality semantics match the previous dataclass form.
    """

    __slots__ = (
        "src", "dst", "protocol", "total_length", "identification",
        "dont_fragment", "more_fragments", "fragment_offset", "ttl",
        "tos", "options",
    )

    def __init__(
        self,
        src: int = 0,
        dst: int = 0,
        protocol: int = IPProto.TCP,
        total_length: int = IP_HEADER_LEN,
        identification: int = 0,
        dont_fragment: bool = False,
        more_fragments: bool = False,
        fragment_offset: int = 0,  # in 8-byte units
        ttl: int = 64,
        tos: int = 0,
        options: bytes = b"",
    ):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.total_length = total_length
        self.identification = identification
        self.dont_fragment = dont_fragment
        self.more_fragments = more_fragments
        self.fragment_offset = fragment_offset
        self.ttl = ttl
        self.tos = tos
        self.options = options

    def _astuple(self):
        return (
            self.src, self.dst, self.protocol, self.total_length,
            self.identification, self.dont_fragment, self.more_fragments,
            self.fragment_offset, self.ttl, self.tos, self.options,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not IPv4Header:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # type: ignore[assignment] - mutable, like the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IPv4Header(src={self.src}, dst={self.dst}, protocol={self.protocol}, "
            f"total_length={self.total_length}, identification={self.identification}, "
            f"dont_fragment={self.dont_fragment}, more_fragments={self.more_fragments}, "
            f"fragment_offset={self.fragment_offset}, ttl={self.ttl}, tos={self.tos})"
        )

    @property
    def header_len(self) -> int:
        """Header length in bytes, including options."""
        return IP_HEADER_LEN + len(self.options)

    @property
    def payload_len(self) -> int:
        """Bytes of payload carried after the header."""
        return self.total_length - self.header_len

    @property
    def is_fragment(self) -> bool:
        """True for any fragment (first, middle, or last) of a datagram."""
        return self.more_fragments or self.fragment_offset > 0

    def copy(self, **overrides) -> "IPv4Header":
        """Return a copy with selected fields replaced."""
        new = IPv4Header.__new__(IPv4Header)
        new.src = self.src
        new.dst = self.dst
        new.protocol = self.protocol
        new.total_length = self.total_length
        new.identification = self.identification
        new.dont_fragment = self.dont_fragment
        new.more_fragments = self.more_fragments
        new.fragment_offset = self.fragment_offset
        new.ttl = self.ttl
        new.tos = self.tos
        new.options = self.options
        if overrides:
            slots = IPv4Header.__slots__
            for name in overrides:
                if name not in slots:
                    raise TypeError(f"unknown IPv4Header field {name!r}")
                setattr(new, name, overrides[name])
        return new

    def pack(self, payload_len: "int | None" = None) -> bytes:
        """Serialize the header, computing total length and checksum.

        When *payload_len* is given the total-length field is derived
        from it; otherwise the stored ``total_length`` is used as-is.
        The checksum is summed from the integer fields, not from packed
        bytes, so the header is packed once with its checksum in place.
        """
        options = self.options
        if len(options) % 4:
            raise ValueError("IPv4 options must be padded to 32-bit words")
        if len(options) > 40:
            raise ValueError("IPv4 options exceed 40 bytes")
        header_len = IP_HEADER_LEN + len(options)
        if payload_len is not None:
            self.total_length = header_len + payload_len
        total_length = self.total_length
        if total_length > IP_MAX_PACKET:
            raise ValueError(f"IPv4 packet too large: {total_length}")
        if self.fragment_offset > 0x1FFF:
            raise ValueError("fragment offset out of range")
        version_ihl = 0x40 | header_len >> 2
        tos = self.tos
        identification = self.identification
        flags_frag = (
            (0x4000 if self.dont_fragment else 0)
            | (0x2000 if self.more_fragments else 0)
            | self.fragment_offset
        )
        ttl = self.ttl
        protocol = self.protocol
        src = self.src
        dst = self.dst
        # The header's 16-bit words, added as integers (32-bit addresses
        # are congruent to the sum of their halves mod 0xFFFF).
        checksum = internet_checksum(
            options,
            (version_ihl << 8 | tos) + total_length + identification + flags_frag
            + (ttl << 8 | protocol) + src + dst,
        )
        try:
            head = _HEAD.pack(
                version_ihl, tos, total_length, identification,
                flags_frag, ttl, protocol, checksum, src, dst,
            )
        except struct.error:
            raise field_range_error(self, _WIDTHS) from None
        return head + options if options else head

    @classmethod
    def unpack(cls, data: bytes, verify: bool = True) -> "IPv4Header":
        """Parse an IPv4 header from the front of *data*."""
        if len(data) < IP_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        header = cls.__new__(cls)
        (
            version_ihl, header.tos, header.total_length, header.identification,
            flags_frag, header.ttl, header.protocol, checksum, header.src, header.dst,
        ) = _HEAD.unpack_from(data)
        if version_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 packet (version={version_ihl >> 4})")
        header_len = (version_ihl & 0x0F) * 4
        if header_len < IP_HEADER_LEN or len(data) < header_len:
            raise ValueError("bad IPv4 header length")
        options = bytes(data[IP_HEADER_LEN:header_len]) if header_len > IP_HEADER_LEN else b""
        if verify:
            # Summed from the fields, as ``pack`` sums them; version 4 makes
            # the sum nonzero, so ``% 0xFFFF == 0`` is the fold to 0xFFFF.
            words = ((version_ihl << 8 | header.tos) + header.total_length
                     + header.identification + flags_frag + (header.ttl << 8 | header.protocol)
                     + checksum + header.src + header.dst)
            if not (verify_checksum(options, words) if options else words % 0xFFFF == 0):
                raise ValueError("IPv4 header checksum mismatch")
        header.dont_fragment = bool(flags_frag & 0x4000)
        header.more_fragments = bool(flags_frag & 0x2000)
        header.fragment_offset = flags_frag & 0x1FFF
        header.options = options
        return header

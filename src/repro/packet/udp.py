"""UDP header encode/decode with pseudo-header checksum."""

from __future__ import annotations

import struct

from .checksum import ones_complement_sum, verify_checksum
from .ip import IPProto, field_range_error

__all__ = ["UDPHeader", "UDP_HEADER_LEN"]

UDP_HEADER_LEN = 8

_HEAD = struct.Struct("!HHHH")
_WIDTHS = (("src_port", 16), ("dst_port", 16), ("length", 16))


class UDPHeader:
    """A UDP header; ``length`` covers header plus payload.

    ``__slots__`` (not a dataclass) because UDP/caravan datapaths build
    one per datagram; equality matches the old dataclass form.
    """

    __slots__ = ("src_port", "dst_port", "length", "checksum")

    def __init__(
        self,
        src_port: int = 0,
        dst_port: int = 0,
        length: int = UDP_HEADER_LEN,
        checksum: int = 0,
    ):
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length
        self.checksum = checksum

    def __eq__(self, other) -> bool:
        if other.__class__ is not UDPHeader:
            return NotImplemented
        return (
            self.src_port == other.src_port
            and self.dst_port == other.dst_port
            and self.length == other.length
            and self.checksum == other.checksum
        )

    __hash__ = None  # type: ignore[assignment] - mutable, like the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UDPHeader(src_port={self.src_port}, dst_port={self.dst_port}, "
            f"length={self.length}, checksum={self.checksum})"
        )

    def _segment_sum(self, payload: bytes, src_ip: int, dst_ip: int) -> int:
        """Ones' complement sum of pseudo-header, header (less its
        checksum field) and *payload*, the header words added as
        integers so the payload is the only buffer read."""
        length = self.length
        return ones_complement_sum(
            payload,
            src_ip + dst_ip + IPProto.UDP + length
            + self.src_port + self.dst_port + length,
        )

    def pack(self, payload: bytes = b"", src_ip: int = 0, dst_ip: int = 0) -> bytes:
        """Serialize header (and compute checksum when IPs are given).

        Per RFC 768 a computed checksum of zero is transmitted as
        ``0xFFFF``; zero on the wire means "no checksum".
        """
        self.length = UDP_HEADER_LEN + len(payload)
        if src_ip or dst_ip:
            checksum = (0xFFFF - self._segment_sum(payload, src_ip, dst_ip)) or 0xFFFF
        else:
            checksum = 0
        try:
            head = _HEAD.pack(self.src_port, self.dst_port, self.length, checksum)
        except struct.error:
            raise field_range_error(self, _WIDTHS) from None
        self.checksum = checksum
        return head

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "UDPHeader":
        """Parse a UDP header at *offset* in *data*."""
        if len(data) - offset < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        header = cls.__new__(cls)
        (
            header.src_port, header.dst_port, header.length, header.checksum,
        ) = _HEAD.unpack_from(data, offset)
        if header.length < UDP_HEADER_LEN:
            raise ValueError("bad UDP length")
        return header

    def verify(self, payload: bytes, src_ip: int, dst_ip: int) -> bool:
        """Return True if the stored checksum matches the given payload."""
        if self.checksum == 0:  # checksum disabled by sender
            return True
        segment = self._segment_sum(payload, src_ip, dst_ip)
        return verify_checksum(b"", segment + self.checksum)

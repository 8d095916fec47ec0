"""TCP header encode/decode, including the options PXGW rewrites.

PXGW intervenes in the MSS negotiation during the three-way handshake,
so option parsing/serialization (kind 2 = MSS) is a first-class citizen
here, alongside window scale, SACK-permitted, and timestamps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .checksum import internet_checksum
from .ip import IPProto, field_range_error

__all__ = ["TCPFlags", "TCPOption", "TCPHeader", "TCP_HEADER_LEN"]

TCP_HEADER_LEN = 20

_HEAD = struct.Struct("!HHIIBBHHH")
_WIDTHS = (
    ("src_port", 16), ("dst_port", 16), ("flags", 8), ("window", 16),
    ("urgent", 16),
)


class TCPFlags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


@dataclass(frozen=True)
class TCPOption:
    """A single TCP option as (kind, data) where data excludes kind/len."""

    kind: int
    data: bytes = b""

    END = 0
    NOP = 1
    MSS = 2
    WINDOW_SCALE = 3
    SACK_PERMITTED = 4
    SACK = 5
    TIMESTAMP = 8

    @classmethod
    def mss(cls, value: int) -> "TCPOption":
        """Build an MSS option advertising *value* bytes."""
        return cls(cls.MSS, struct.pack("!H", value))

    @classmethod
    def window_scale(cls, shift: int) -> "TCPOption":
        """Build a window-scale option with the given shift count."""
        return cls(cls.WINDOW_SCALE, struct.pack("!B", shift))

    @classmethod
    def sack_permitted(cls) -> "TCPOption":
        """Build a SACK-permitted option."""
        return cls(cls.SACK_PERMITTED)

    @classmethod
    def timestamp(cls, value: int, echo: int) -> "TCPOption":
        """Build a timestamp option."""
        return cls(cls.TIMESTAMP, struct.pack("!II", value, echo))

    @property
    def mss_value(self) -> int:
        """Decode the MSS value; only valid for MSS options."""
        if self.kind != self.MSS or len(self.data) != 2:
            raise ValueError("not an MSS option")
        return struct.unpack("!H", self.data)[0]


def _pack_options(options: "Tuple[TCPOption, ...]") -> bytes:
    """Serialize options and pad with NOPs to a 32-bit boundary."""
    out = bytearray()
    for option in options:
        if option.kind in (TCPOption.END, TCPOption.NOP):
            out.append(option.kind)
        else:
            out.append(option.kind)
            out.append(2 + len(option.data))
            out.extend(option.data)
    while len(out) % 4:
        out.append(TCPOption.NOP)
    if len(out) > 40:
        raise ValueError("TCP options exceed 40 bytes")
    return bytes(out)


def _unpack_options(data: bytes) -> "Tuple[TCPOption, ...]":
    """Parse an options blob into a tuple, stopping at END."""
    options: List[TCPOption] = []
    index = 0
    while index < len(data):
        kind = data[index]
        if kind == TCPOption.END:
            break
        if kind == TCPOption.NOP:
            index += 1
            continue
        if index + 1 >= len(data):
            raise ValueError("truncated TCP option")
        length = data[index + 1]
        if length < 2 or index + length > len(data):
            raise ValueError("bad TCP option length")
        options.append(TCPOption(kind, bytes(data[index + 2 : index + length])))
        index += length
    return tuple(options)


class TCPHeader:
    """A parsed TCP header with structured options.

    A hand-rolled ``__slots__`` class rather than a dataclass: segment
    construction and :meth:`copy` run once or more per packet on the
    TCP fast path, and dropping the per-instance ``__dict__`` makes
    both measurably cheaper.  Equality matches the old dataclass form.
    ``options`` is a tuple, shared by copies and TSO segments.
    """

    __slots__ = (
        "src_port", "dst_port", "seq", "ack", "flags", "window",
        "checksum", "urgent", "options",
    )

    def __init__(
        self,
        src_port: int = 0,
        dst_port: int = 0,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
        checksum: int = 0,
        urgent: int = 0,
        options: "Optional[Iterable[TCPOption]]" = None,
    ):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.checksum = checksum
        self.urgent = urgent
        self.options = () if options is None else tuple(options)

    def _astuple(self):
        return (
            self.src_port, self.dst_port, self.seq, self.ack, self.flags,
            self.window, self.checksum, self.urgent, self.options,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not TCPHeader:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # type: ignore[assignment] - mutable, like the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCPHeader(src_port={self.src_port}, dst_port={self.dst_port}, "
            f"seq={self.seq}, ack={self.ack}, flags={self.flags:#x}, "
            f"window={self.window}, options={self.options!r})"
        )

    @property
    def header_len(self) -> int:
        """Header length in bytes including padded options.

        Computed arithmetically (option sizes + NOP padding to a 32-bit
        boundary) rather than by serializing: this property sits on the
        per-packet length-accounting path of every link and stat.
        """
        options = self.options
        if not options:
            return TCP_HEADER_LEN
        length = 0
        for option in options:
            kind = option.kind
            length += 1 if kind <= TCPOption.NOP else 2 + len(option.data)
        return TCP_HEADER_LEN + ((length + 3) & ~3)

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCPFlags.SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & TCPFlags.ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCPFlags.FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCPFlags.RST)

    @property
    def psh(self) -> bool:
        return bool(self.flags & TCPFlags.PSH)

    def find_option(self, kind: int) -> Optional[TCPOption]:
        """Return the first option of *kind*, or None."""
        for option in self.options:
            if option.kind == kind:
                return option
        return None

    @property
    def mss_option(self) -> Optional[int]:
        """The advertised MSS, if an MSS option is present."""
        option = self.find_option(TCPOption.MSS)
        return option.mss_value if option else None

    def replace_mss(self, new_mss: int) -> bool:
        """Rewrite the MSS option; returns True if one existed.

        This is the primitive PXGW's MSS-clamping module uses to
        advertise a larger (or smaller) MSS on behalf of the endpoint
        behind it.  It assigns a new options tuple: copies share the old one.
        """
        options = self.options
        for index, option in enumerate(options):
            if option.kind == TCPOption.MSS:
                self.options = options[:index] + (TCPOption.mss(new_mss),) + options[index + 1 :]
                return True
        return False

    def copy(self) -> "TCPHeader":
        """Return a copy safe to mutate (the options tuple is shared)."""
        new = TCPHeader.__new__(TCPHeader)
        new.src_port = self.src_port
        new.dst_port = self.dst_port
        new.seq = self.seq
        new.ack = self.ack
        new.flags = self.flags
        new.window = self.window
        new.checksum = self.checksum
        new.urgent = self.urgent
        new.options = self.options
        return new

    def pack(self, payload: bytes = b"", src_ip: int = 0, dst_ip: int = 0) -> bytes:
        """Serialize the header, computing the checksum if IPs given.

        The pseudo-header and header are summed from their integer
        fields, so *payload* is read exactly once and the header is
        packed once with its checksum in place.
        """
        options = self.options
        opts = _pack_options(options) if options else b""
        header_len = TCP_HEADER_LEN + len(opts)
        src_port = self.src_port
        dst_port = self.dst_port
        seq = self.seq & 0xFFFFFFFF
        ack = self.ack & 0xFFFFFFFF
        offset = header_len << 2  # data offset in the high nibble of its byte
        flags = self.flags
        window = self.window
        urgent = self.urgent
        if src_ip or dst_ip:
            # Pseudo-header and header words added as integers: a 32-bit
            # field (or the option block, a whole number of words) is
            # congruent to the sum of its 16-bit words mod 0xFFFF.
            fields = (
                src_ip + dst_ip + IPProto.TCP + header_len + len(payload)
                + src_port + dst_port + seq + ack + (offset << 8 | flags)
                + window + urgent
            )
            if opts:
                fields += int.from_bytes(opts, "big")
            checksum = internet_checksum(payload, fields)
        else:
            checksum = 0
        try:
            head = _HEAD.pack(
                src_port, dst_port, seq, ack, offset, flags, window, checksum, urgent,
            )
        except struct.error:
            raise field_range_error(self, _WIDTHS) from None
        self.checksum = checksum
        return head + opts if opts else head

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "Tuple[TCPHeader, int]":
        """Parse a TCP header at *offset*; returns (header, header_length_bytes)."""
        if len(data) - offset < TCP_HEADER_LEN:
            raise ValueError("truncated TCP header")
        header = cls.__new__(cls)
        (
            header.src_port, header.dst_port, header.seq, header.ack, offset_byte,
            header.flags, header.window, header.checksum, header.urgent,
        ) = _HEAD.unpack_from(data, offset)
        header_len = (offset_byte >> 4) * 4
        if header_len < TCP_HEADER_LEN or len(data) - offset < header_len:
            raise ValueError("bad TCP data offset")
        if header_len == TCP_HEADER_LEN:
            header.options = ()
        else:
            header.options = _unpack_options(
                data[offset + TCP_HEADER_LEN : offset + header_len]
            )
        return header, header_len

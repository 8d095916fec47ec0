"""Internet checksum helpers (RFC 1071) and incremental updates (RFC 1624).

All multi-byte quantities are big-endian, as on the wire.  The ones'
complement sum is computed over 16-bit words; an odd trailing byte is
padded with a zero byte on the right.
"""

from __future__ import annotations

import struct

__all__ = [
    "ones_complement_sum",
    "internet_checksum",
    "verify_checksum",
    "incremental_update",
    "pseudo_header",
]


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """Return the 16-bit ones' complement sum of *data*.

    ``initial`` allows chaining sums across several buffers (e.g. a
    pseudo-header followed by the transport segment); it may be any
    non-negative integer, folded or not, so a serializer can pass the
    plain arithmetic sum of its header fields.

    Because ``2**16 == 1 (mod 0xFFFF)``, the buffer read as one
    big-endian integer is congruent to the sum of its 16-bit words, so
    one C-level ``int.from_bytes`` and one ``%`` replace the word loop
    and the end-around-carry fold.  The residue alone cannot tell the
    two ones' complement zeros apart: a nonzero input that is a
    multiple of ``0xFFFF`` folds to ``0xFFFF`` (RFC 1071), only an
    all-zero input to ``0`` — hence the ``or`` below.
    """
    value = int.from_bytes(data, "big")
    residue = value % 0xFFFF
    if len(data) & 1:
        # The odd trailing byte is the high half of a zero-padded word.
        residue <<= 8
    total = residue + initial
    return total % 0xFFFF or (0xFFFF if value or initial else 0)


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """Return the Internet checksum of *data* (RFC 1071)."""
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def verify_checksum(data: bytes, initial: int = 0) -> bool:
    """Return ``True`` if *data* (including its checksum field) verifies.

    A buffer containing a correct checksum sums to ``0xFFFF``.
    """
    return ones_complement_sum(data, initial) == 0xFFFF


def incremental_update(old_checksum: int, old_word: int, new_word: int) -> int:
    """Update a checksum after a 16-bit field changed (RFC 1624 eqn. 3).

    ``HC' = ~(~HC + ~m + m')`` where *m* is the old field value and *m'*
    the new one.  Used by PXGW when rewriting TCP MSS options and IP
    lengths so the full segment need not be re-summed.
    """
    total = (~old_checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
    result = internet_checksum(b"", total)
    # 0x0000 and 0xFFFF both encode zero in ones' complement, but only
    # 0xFFFF verifies against data summing to +0 — normalize to it.
    return result or 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, protocol: int, length: int) -> bytes:
    """Return the IPv4 pseudo-header used by TCP/UDP checksums."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, protocol, length)

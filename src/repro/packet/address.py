"""IPv4 address helpers.

Addresses are carried as plain ``int`` (host-order 32-bit values) through
the library for speed; these helpers convert to and from dotted-quad
strings and validate prefixes.
"""

from __future__ import annotations

__all__ = ["ip_to_str", "str_to_ip", "in_subnet", "make_subnet"]


def str_to_ip(text: str) -> int:
    """Parse a dotted-quad string such as ``"10.0.0.1"`` into an int."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Format a 32-bit int as a dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value:#x}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def make_subnet(text: str) -> "tuple[int, int]":
    """Parse ``"10.0.0.0/24"`` into a ``(network, mask)`` pair of ints."""
    addr, _, prefix_text = text.partition("/")
    prefix = int(prefix_text) if prefix_text else 32
    if not 0 <= prefix <= 32:
        raise ValueError(f"bad prefix length in {text!r}")
    mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0
    return str_to_ip(addr) & mask, mask


def in_subnet(address: int, network: int, mask: int) -> bool:
    """Return ``True`` if *address* falls inside ``network/mask``."""
    return (address & mask) == (network & mask)

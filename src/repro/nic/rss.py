"""Receive-side scaling: Toeplitz hashing over the transport 4-tuple.

PXGW shards flows across worker cores with RSS so each core owns a
disjoint flow set and merge state needs no locking.  The hash below is
the real Microsoft Toeplitz construction with the well-known default
key, so flow→queue placement (and its imbalance) matches hardware.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from ..packet import FlowKey

__all__ = ["toeplitz_hash", "flow_hash", "mix64", "RssDistributor", "DEFAULT_RSS_KEY"]

_MASK64 = (1 << 64) - 1

#: The 40-byte default RSS key Microsoft published and most NICs ship.
DEFAULT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


@lru_cache(maxsize=16)
def _toeplitz_tables(key: bytes) -> Tuple[Tuple[int, ...], ...]:
    """Per-byte-position lookup tables for *key*.

    The hash XORs in, for every set input bit, the 32-bit key window
    starting at that bit position.  ``tables[i][b]`` is that XOR for
    byte value ``b`` at input offset ``i``, so hashing costs one lookup
    per input byte instead of eight bit tests.
    """
    key_bits = int.from_bytes(key, "big")
    total_key_bits = len(key) * 8
    tables = []
    for position in range(len(key) - 4):
        top = total_key_bits - 32 - position * 8
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value
            # Bit k of the byte (0 = LSB) is input bit 8·position + 7 - k,
            # and ``low.bit_length()`` is k + 1.
            window = (key_bits >> (top - 8 + low.bit_length())) & 0xFFFFFFFF
            table[value] = table[value ^ low] ^ window
        tables.append(tuple(table))
    return tuple(tables)


def toeplitz_hash(data: bytes, key: bytes = DEFAULT_RSS_KEY) -> int:
    """Compute the 32-bit Toeplitz hash of *data* under *key*."""
    if len(key) < len(data) + 4:
        raise ValueError("RSS key too short for input")
    result = 0
    for table, byte in zip(_toeplitz_tables(bytes(key)), data):
        result ^= table[byte]
    return result


def flow_hash(key: FlowKey, rss_key: bytes = DEFAULT_RSS_KEY) -> int:
    """RSS hash of IPv4 TCP/UDP: src ip, dst ip, src port, dst port.

    ``toeplitz_hash`` of those packed ``!IIHH``, read from the fields.
    """
    tables = _toeplitz_tables(rss_key)
    if len(tables) < 12:
        raise ValueError("RSS key too short for input")
    _protocol, src, sport, dst, dport = key
    return (tables[0][src >> 24] ^ tables[1][src >> 16 & 255]
            ^ tables[2][src >> 8 & 255] ^ tables[3][src & 255]
            ^ tables[4][dst >> 24] ^ tables[5][dst >> 16 & 255]
            ^ tables[6][dst >> 8 & 255] ^ tables[7][dst & 255]
            ^ tables[8][sport >> 8] ^ tables[9][sport & 255]
            ^ tables[10][dport >> 8] ^ tables[11][dport & 255])


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic, well-mixed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class RssDistributor:
    """Maps flows onto *queues* receive queues via an indirection table."""

    def __init__(self, queues: int, key: bytes = DEFAULT_RSS_KEY):
        if queues <= 0:
            raise ValueError("need at least one queue")
        self.queues = queues
        self.key = key
        #: The 128-entry indirection table, round-robin initialized like
        #: drivers do.
        self.table = [index % queues for index in range(128)]
        self._cache: dict = {}
        #: Steering decisions landed on each queue (cached hits count:
        #: every call is one hardware steering decision).
        self.steered = [0] * queues

    def queue_for(self, flow: FlowKey) -> int:
        """The RX queue index this flow lands on."""
        cached = self._cache.get(flow)
        if cached is not None:
            self.steered[cached] += 1
            return cached
        queue = self.table[flow_hash(flow, self.key) % len(self.table)]
        self._cache[flow] = queue
        self.steered[queue] += 1
        return queue

    def distribution(self, flows: Sequence[FlowKey]) -> "list[int]":
        """Per-queue flow counts for a set of flows (imbalance analysis)."""
        counts = [0] * self.queues
        for flow in flows:
            counts[self.queue_for(flow)] += 1
        return counts

"""Flow identification: the 5-tuple key used by PXGW's flow table."""

from __future__ import annotations

from typing import NamedTuple

from .address import ip_to_str

__all__ = ["FlowKey"]


class FlowKey(NamedTuple):
    """An immutable, hashable transport 5-tuple.

    ``NamedTuple`` keeps hashing cheap — the PXGW flow table performs one
    lookup per received packet, which dominates the merge path.
    """

    protocol: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int

    def reversed(self) -> "FlowKey":
        """The key of the opposite direction of the same connection."""
        return tuple.__new__(
            FlowKey, (self.protocol, self.dst_ip, self.dst_port, self.src_ip, self.src_port))

    def canonical(self) -> "FlowKey":
        """A direction-independent key (smaller endpoint first).

        Used where both directions of a connection must share state,
        e.g. the MSS-clamp module tracking a handshake.
        """
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port):
            return self
        return self.reversed()

    def __str__(self) -> str:
        return (
            f"proto={self.protocol} "
            f"{ip_to_str(self.src_ip)}:{self.src_port}->"
            f"{ip_to_str(self.dst_ip)}:{self.dst_port}"
        )

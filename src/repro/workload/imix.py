"""IMIX: realistic Internet packet-size mixes.

The paper's evaluation drives PXGW with iPerf bulk flows (all
full-MSS); real border traffic is a mix of tiny control packets, medium
datagrams, and full-size data.  The classic "simple IMIX" ratio is
7:4:1 of 40/576/1500-byte packets; these generators produce flow
populations whose packet sizes follow that mix so the gateway can be
measured under realistic traffic.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from .streams import TcpStreamSource, UdpStreamSource

__all__ = ["IMIX_SIMPLE", "ImixProfile", "imix_udp_sources", "imix_tcp_sources"]

#: The classic simple-IMIX: (IP packet size, weight).
IMIX_SIMPLE: "Tuple[Tuple[int, int], ...]" = ((40, 7), (576, 4), (1500, 1))


class ImixProfile:
    """A weighted packet-size distribution."""

    def __init__(self, mix: "Sequence[Tuple[int, int]]" = IMIX_SIMPLE):
        if not mix:
            raise ValueError("empty mix")
        for size, weight in mix:
            if size < 28:
                raise ValueError(f"size {size} below IP+UDP header floor")
            if weight <= 0:
                raise ValueError("weights must be positive")
        self.mix = tuple(mix)
        self._sizes = [size for size, _ in mix]
        self._weights = [weight for _, weight in mix]

    def draw(self, rng: random.Random) -> int:
        """One IP packet size from the mix."""
        return rng.choices(self._sizes, weights=self._weights, k=1)[0]

    @property
    def mean_size(self) -> float:
        total_weight = sum(self._weights)
        return sum(s * w for s, w in self.mix) / total_weight


def imix_udp_sources(
    flows: int,
    rng: random.Random,
    profile: "ImixProfile | None" = None,
    tag: str = "",
    client_net: str = "198.51.100",
    server_net: str = "10.1.0",
    base_port: int = 25000,
) -> "List[UdpStreamSource]":
    """UDP flows whose (fixed per-flow) datagram size follows the mix.

    Real flows have a characteristic size (VoIP ~ small, bulk ~ MTU);
    drawing the size per *flow* keeps per-flow streams mergeable where
    the application's size allows, matching how a border sees traffic.
    """
    profile = profile or ImixProfile()
    sources = []
    for index in range(flows):
        size = profile.draw(rng)
        sources.append(
            UdpStreamSource(
                src=f"{client_net}.{(index % 250) + 1}",
                dst=f"{server_net}.{(index % 4) + 1}",
                src_port=base_port + index,
                dst_port=5201,
                payload_size=max(1, size - 28),
                tag=tag,
            )
        )
    return sources


def imix_tcp_sources(
    flows: int,
    rng: random.Random,
    tag: str = "",
) -> "List[TcpStreamSource]":
    """TCP flows with per-flow segment sizes drawn from the simple IMIX."""
    profile = ImixProfile()
    sources = []
    for index in range(flows):
        size = profile.draw(rng)
        sources.append(
            TcpStreamSource(
                src=f"198.51.100.{(index % 250) + 1}",
                dst=f"10.1.0.{(index % 4) + 1}",
                src_port=26000 + index,
                dst_port=5201,
                payload_size=max(1, size - 40),
                tag=tag,
            )
        )
    return sources

"""Offline packet-stream generators for datapath benchmarks.

The Figure 5 and Figure 1b/1c experiments feed packet *streams* into
the gateway datapath or the end-host receiver model.  The streams here
reproduce the structure that matters for merge behaviour:

* each TCP flow's bytes arrive as contiguous in-order runs (the shadow
  of sender TSO bursts);
* runs from concurrent flows interleave — ``mean_run`` controls how
  many back-to-back packets a flow gets before another flow cuts in,
  which is precisely the knob that degrades LRO/GRO aggregation as
  concurrency grows (Figure 1c);
* UDP flows carry consecutive IP IDs so caravan/UDP_GRO merging can
  chain them.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..packet import Packet, TCPFlags, build_tcp, build_udp
from ..packet.address import str_to_ip

__all__ = ["TcpStreamSource", "UdpStreamSource", "interleave", "make_tcp_sources",
           "make_udp_sources"]

_ZERO: dict = {}


def _payload(length: int) -> bytes:
    buffer = _ZERO.get(length)
    if buffer is None:
        buffer = bytes(length)
        _ZERO[length] = buffer
    return buffer


class TcpStreamSource:
    """An endless in-order TCP segment stream for one flow."""

    # Slotted: a city-scale stream holds one source per active flow.
    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "payload_size", "tag",
                 "seq", "packets_emitted")

    def __init__(self, src: str, dst: str, src_port: int, dst_port: int,
                 payload_size: int, tag: str = ""):
        if payload_size <= 0:
            raise ValueError("payload_size must be positive")
        self.src_ip = str_to_ip(src)
        self.dst_ip = str_to_ip(dst)
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_size = payload_size
        self.tag = tag
        self.seq = 0
        self.packets_emitted = 0

    def next_packet(self) -> Packet:
        """The flow's next in-order segment."""
        packet = build_tcp(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            payload=_payload(self.payload_size), seq=self.seq,
            flags=TCPFlags.ACK,
        )
        self.seq = (self.seq + self.payload_size) & 0xFFFFFFFF
        self.packets_emitted += 1
        return packet


class UdpStreamSource:
    """A CBR UDP datagram stream with consecutive IP IDs."""

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "payload_size", "tag",
                 "ip_id", "packets_emitted")

    def __init__(self, src: str, dst: str, src_port: int, dst_port: int,
                 payload_size: int, tag: str = ""):
        if payload_size <= 0:
            raise ValueError("payload_size must be positive")
        self.src_ip = str_to_ip(src)
        self.dst_ip = str_to_ip(dst)
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_size = payload_size
        self.tag = tag
        self.ip_id = random.Random(hash((src_port, dst_port)) & 0xFFFF).randrange(0, 0xFFFF)
        self.packets_emitted = 0

    def next_packet(self) -> Packet:
        """The flow's next datagram."""
        packet = build_udp(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            payload=_payload(self.payload_size), ip_id=self.ip_id,
        )
        self.ip_id = (self.ip_id + 1) & 0xFFFF
        self.packets_emitted += 1
        return packet


def interleave(
    sources: Sequence,
    total_packets: int,
    rng: random.Random,
    mean_run: float = 8.0,
) -> Iterator[Tuple[Packet, str]]:
    """Mix flows into one arrival stream of ``(packet, tag)``.

    A random source is drawn, then emits a geometrically distributed
    run (mean ``mean_run``) of back-to-back packets.  ``mean_run`` of 1
    is per-packet round-robin chaos; large values approximate a single
    flow at a time.
    """
    if not sources:
        raise ValueError("need at least one source")
    if mean_run < 1.0:
        raise ValueError("mean_run must be >= 1")
    emitted = 0
    stop_p = 1.0 / mean_run
    while emitted < total_packets:
        source = sources[rng.randrange(len(sources))]
        while emitted < total_packets:
            yield source.next_packet(), source.tag
            emitted += 1
            if rng.random() < stop_p:
                break


def make_tcp_sources(
    count: int,
    payload_size: int,
    tag: str = "",
    client_net: str = "198.51.100",
    server_net: str = "10.1.0",
    base_port: int = 10000,
) -> "List[TcpStreamSource]":
    """*count* TCP flows from distinct client addresses/ports."""
    return [
        TcpStreamSource(
            src=f"{client_net}.{(index % 250) + 1}",
            dst=f"{server_net}.{(index % 4) + 1}",
            src_port=base_port + index,
            dst_port=5201,
            payload_size=payload_size,
            tag=tag,
        )
        for index in range(count)
    ]


def make_udp_sources(
    count: int,
    payload_size: int,
    tag: str = "",
    client_net: str = "198.51.100",
    server_net: str = "10.1.0",
    base_port: int = 20000,
) -> "List[UdpStreamSource]":
    """*count* UDP flows from distinct client addresses/ports."""
    return [
        UdpStreamSource(
            src=f"{client_net}.{(index % 250) + 1}",
            dst=f"{server_net}.{(index % 4) + 1}",
            src_port=base_port + index,
            dst_port=5201,
            payload_size=payload_size,
            tag=tag,
        )
        for index in range(count)
    ]

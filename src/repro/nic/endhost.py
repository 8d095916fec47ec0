"""End-host packet-processing performance models.

:class:`ReceiverModel` runs real arrival streams through the offload
engines (LRO in "NIC hardware" pricing, GRO in software pricing) and
charges a :class:`CycleAccount`; Figures 1b, 1c, and 5c come from
scaling the resulting accounts to the endpoint CPU.  The symmetric
:class:`SenderModel` prices the transmit side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..cpu import DEFAULT_HOST_COSTS, CycleAccount, HostCosts
from ..packet import Packet
from .offloads import TcpCoalescer, UdpGroCoalescer, segment_tcp

__all__ = ["ReceiverConfig", "ReceiverModel", "SenderModel"]


@dataclass(frozen=True)
class ReceiverConfig:
    """Which offloads the receiving host has enabled."""

    lro: bool = False
    gro: bool = False
    udp_gro: bool = False
    lro_contexts: int = 16
    gro_contexts: int = 64
    max_merge_bytes: int = 65535
    #: Packets per NAPI poll; GRO flushes at each batch boundary.
    poll_batch: int = 64
    #: Heavy multi-flow receivers stay in NAPI polling: the per-segment
    #: interrupt/wakeup cost amortizes away (see HostCosts).
    busy_polling: bool = False


class ReceiverModel:
    """Prices an RX packet stream on one core of an end host."""

    def __init__(self, config: ReceiverConfig):
        self.config = config
        self.account = CycleAccount()
        self.delivered: List[Packet] = []
        self._lro = (
            TcpCoalescer(config.max_merge_bytes, config.lro_contexts) if config.lro else None
        )
        self._gro = (
            TcpCoalescer(config.max_merge_bytes, config.gro_contexts) if config.gro else None
        )
        self._udp_gro = (
            UdpGroCoalescer(config.max_merge_bytes, config.gro_contexts)
            if config.udp_gro
            else None
        )

    # ------------------------------------------------------------------
    def process(self, arrivals: Iterable[Packet]) -> List[Packet]:
        """Run *arrivals* through the RX path; returns delivered segments."""
        batch_fill = 0
        for packet in arrivals:
            self._rx_one(packet)
            batch_fill += 1
            if batch_fill >= self.config.poll_batch:
                self._end_poll()
                batch_fill = 0
        self._end_poll()
        return self.delivered

    def _rx_one(self, packet: Packet) -> None:
        if self._lro is not None and packet.is_tcp:
            # NIC hardware merges before DMA: no host cost per wire packet.
            for merged in self._lro.feed(packet):
                self._host_sees(merged)
            return
        self._host_sees(packet, from_wire=True)

    def _host_sees(self, packet: Packet, from_wire: bool = False) -> None:
        costs = DEFAULT_HOST_COSTS
        self.account.charge(costs.driver_rx_per_packet, category="driver")
        if from_wire and self._gro is not None and packet.is_tcp:
            self.account.charge(costs.gro_per_packet, category="gro")
            for merged in self._gro.feed(packet):
                self._deliver(merged)
            return
        if from_wire and self._udp_gro is not None and packet.is_udp:
            self.account.charge(costs.gro_per_packet, category="gro")
            for merged in self._udp_gro.feed(packet):
                self._deliver(merged)
            return
        self._deliver(packet)

    def _end_poll(self) -> None:
        if self._gro is not None:
            for merged in self._gro.flush():
                self._deliver(merged)
        if self._udp_gro is not None:
            for merged in self._udp_gro.flush():
                self._deliver(merged)
        if self._lro is not None:
            for merged in self._lro.flush():
                self._host_sees(merged)

    def _deliver(self, packet: Packet) -> None:
        costs = DEFAULT_HOST_COSTS
        payload = len(packet.payload)
        if packet.is_tcp and payload == 0:
            self.account.charge(costs.ack_rx_per_packet, category="ack")
            self.account.note_packet(0)
            self.delivered.append(packet)
            return
        if packet.is_udp:
            self.account.charge(costs.udp_per_datagram, category="stack")
            inner = packet.meta.get("merged_from", 0) or packet.meta.get("caravan_inner", 0)
            if inner:
                self.account.charge(
                    costs.caravan_parse_per_datagram * inner, category="parse"
                )
        else:
            self.account.charge(costs.stack_per_segment, category="stack")
        if not self.config.busy_polling:
            self.account.charge(costs.wakeup_per_segment, category="wakeup")
        self.account.charge(
            costs.copy_per_byte * payload,
            mem_bytes=costs.mem_factor_rx * payload,
            category="copy",
        )
        self.account.note_packet(payload)
        self.delivered.append(packet)

    # ------------------------------------------------------------------
    @property
    def aggregation_factor(self) -> float:
        """Mean wire packets per delivered data segment."""
        data_segments = [p for p in self.delivered if len(p.payload) > 0]
        if not data_segments:
            return 0.0
        wire_packets = sum(p.meta.get("merged_from", 1) for p in data_segments)
        return wire_packets / len(data_segments)


class SenderModel:
    """Prices the transmit side of a bulk TCP sender."""

    def __init__(
        self,
        mss: int,
        tso: bool = True,
        chunk_bytes: int = 65536,
        costs: HostCosts = DEFAULT_HOST_COSTS,
    ):
        if mss <= 0:
            raise ValueError(f"bad MSS {mss}")
        self.mss = mss
        self.tso = tso
        self.chunk_bytes = chunk_bytes
        self.costs = costs
        self.account = CycleAccount()

    def send(self, template: Packet, total_bytes: int) -> List[Packet]:
        """Emit *total_bytes* as wire packets, charging TX costs.

        *template* provides addressing/ports; payload content is a
        repeating pattern (contents do not affect any result here).
        """
        packets: List[Packet] = []
        remaining = total_bytes
        seq = template.tcp.seq if template.is_tcp else 0
        while remaining > 0:
            chunk_len = min(self.chunk_bytes, remaining)
            self.account.charge(
                self.costs.tx_stack_per_chunk + self.costs.tx_copy_per_byte * chunk_len,
                mem_bytes=chunk_len,
                category="tx-stack",
            )
            chunk = template.copy()
            chunk.payload = bytes(chunk_len)
            chunk.tcp.seq = seq & 0xFFFFFFFF
            segments = segment_tcp(chunk, self.mss)
            if not self.tso:
                self.account.charge(
                    self.costs.tx_sw_segment_per_packet * len(segments), category="tx-gso"
                )
            for segment in segments:
                self.account.note_packet(len(segment.payload))
            packets.extend(segments)
            seq += chunk_len
            remaining -= chunk_len
        return packets

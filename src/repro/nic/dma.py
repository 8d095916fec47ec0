"""DMA traffic models: scatter-gather and header-only DMA.

The header-only mode follows Pismenny et al. (ASPLOS '22): payloads
stay resident in on-NIC memory and only headers cross PCIe into host
DRAM; the datapath manipulates headers and descriptor chains, and the
NIC re-attaches payloads at TX.  For a forwarding middlebox like PXGW
this removes almost all per-byte memory traffic — which is exactly the
1.09 → 1.45 Tbps step in Figure 5a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..packet import Packet, TCPHeader, UDPHeader

__all__ = ["DmaModel", "ScatterGatherList", "FULL_DMA", "HEADER_ONLY_DMA"]


@dataclass(frozen=True)
class DmaModel:
    """How packet bytes translate into host-memory traffic.

    ``header_factor``/``payload_factor`` count DRAM crossings per byte
    of header/payload over the packet's lifetime in the box (RX write +
    processing read + TX read, minus whatever stays on the NIC).
    """

    name: str
    header_factor: float
    payload_factor: float
    #: Bytes of on-NIC memory a resident payload occupies (capacity
    #: pressure; ConnectX-7 exposes ~2 MB of usable NIC memory).
    nic_memory_per_payload_byte: float = 0.0

    def mem_bytes(self, packet: Packet, size: "float | None" = None) -> float:
        """Host DRAM bytes moved for one packet passing through.

        *size* is the packet's ``total_len`` when the caller already
        computed it.
        """
        l4 = packet.l4
        if l4.__class__ is TCPHeader and not l4.options and not packet.ip.options:
            header_bytes = 40  # the bulk-data case: no IP or TCP options
        elif l4.__class__ is UDPHeader and not packet.ip.options:
            header_bytes = 28  # a datagram or caravan without IP options
        else:
            header_bytes = packet.ip.header_len + packet.l4_header_len
        total = packet.total_len if size is None else size
        return header_bytes * self.header_factor + (total - header_bytes) * self.payload_factor

    def nic_memory_bytes(self, packet: Packet) -> float:
        """On-NIC memory held while the packet is in flight."""
        header_bytes = packet.ip.header_len + packet.l4_header_len
        return (packet.total_len - header_bytes) * self.nic_memory_per_payload_byte


#: Conventional scatter-gather DMA: every byte crosses into DRAM on RX,
#: is read once by the datapath (headers more than once), and read
#: again by TX DMA.
FULL_DMA = DmaModel(name="full", header_factor=3.2, payload_factor=2.67)

#: Header-only DMA: payload never enters host DRAM.
HEADER_ONLY_DMA = DmaModel(
    name="header-only",
    header_factor=3.2,
    payload_factor=0.18,
    nic_memory_per_payload_byte=1.0,
)


class ScatterGatherList:
    """A chain of buffer segments composing one outgoing packet.

    PXGW's merge path builds large packets as gather lists instead of
    copying payloads; the list length is what the NIC must walk at TX.
    """

    def __init__(self):
        self._segments: List[bytes] = []

    def append(self, segment: bytes) -> None:
        """Add one buffer segment."""
        self._segments.append(segment)

    def extend(self, segments: List[bytes]) -> None:
        """Add several segments."""
        self._segments.extend(segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(len(segment) for segment in self._segments)

    def linearize(self) -> bytes:
        """Copy into one contiguous buffer (what a copy-based path pays)."""
        return b"".join(self._segments)

"""Gateway statistics, including the paper's conversion-yield metric."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable

from ..packet import Packet
from .caravan import caravan_inner_count, is_caravan

__all__ = ["GatewayStats"]


@dataclass
class GatewayStats:
    """Counters kept by each worker and aggregated for reporting.

    *Conversion yield* (§5.1) is the fraction of data packets emitted
    toward the b-network that are full-iMTU-sized after merging — the
    paper reports 93–94 % for PX vs 76 % for the DPDK-GRO baseline.
    """

    rx_packets: int = 0
    tx_packets: int = 0
    merged_packets: int = 0
    split_segments: int = 0
    caravans_built: int = 0
    caravans_opened: int = 0
    hairpinned: int = 0
    mss_rewrites: int = 0
    #: Packets charged at full-DMA rates because the on-NIC memory was
    #: exhausted while header-only DMA was enabled.
    hdo_fallbacks: int = 0
    #: Data packets forwarded unmerged because the worker was DEGRADED.
    passthrough_packets: int = 0
    #: Packets hairpinned past the whole pipeline in BYPASS mode.
    bypassed_packets: int = 0
    #: Datagrams sent plain because caravan negotiation withheld
    #: bundling toward their peer.
    caravans_suppressed: int = 0
    #: TCP payload bytes offered to / emitted by the merge+split engines.
    #: Both engines conserve payload bytes exactly, so at any instant
    #: ``tcp_payload_in == tcp_payload_out + merge.pending_bytes()``.
    tcp_payload_in: int = 0
    tcp_payload_out: int = 0
    #: UDP datagrams offered to / emitted by the caravan engines, with a
    #: caravan counted as its inner-record total.  At any instant
    #: ``udp_datagrams_in == udp_datagrams_out
    #:   + caravan_merge.pending_packets() + udp_datagrams_malformed``.
    udp_datagrams_in: int = 0
    udp_datagrams_out: int = 0
    #: Datagrams discarded because a caravan failed to decode (a
    #: damaged bundle reaching the split engine).
    udp_datagrams_malformed: int = 0
    #: Caravans the split engine refused to open (truncated/garbled).
    malformed_caravans: int = 0
    #: Histogram of emitted inbound data-packet total lengths.
    inbound_size_histogram: Dict[int, int] = field(default_factory=dict)
    inbound_data_packets: int = 0
    inbound_full_packets: int = 0
    inbound_data_bytes: int = 0
    inbound_full_bytes: int = 0

    def note_inbound_data_packet(self, total_len: int, imtu: int, slack: int = 128) -> None:
        """Record one data packet emitted toward the b-network.

        A packet counts as "full" when within *slack* bytes of the iMTU:
        the last segment of a stream is legitimately short, and a
        caravan of fixed-size records cannot always reach the iMTU
        exactly (6 records of 1480 B top out at 8908 B under a 9000 B
        iMTU).
        """
        self.inbound_data_packets += 1
        self.inbound_data_bytes += total_len
        self.inbound_size_histogram[total_len] = (
            self.inbound_size_histogram.get(total_len, 0) + 1
        )
        if total_len >= imtu - slack:
            self.inbound_full_packets += 1
            self.inbound_full_bytes += total_len

    @property
    def conversion_yield(self) -> float:
        """Packet-weighted fraction of inbound data packets at full iMTU."""
        if self.inbound_data_packets == 0:
            return 0.0
        return self.inbound_full_packets / self.inbound_data_packets

    @property
    def conversion_yield_bytes(self) -> float:
        """Byte-weighted conversion yield."""
        if self.inbound_data_bytes == 0:
            return 0.0
        return self.inbound_full_bytes / self.inbound_data_bytes

    def conservation_errors(
        self, pending_tcp_bytes: int = 0, pending_datagrams: int = 0
    ) -> "Dict[str, int]":
        """Violations of the gateway's conservation identities.

        Returns a dict of nonzero imbalances (empty = consistent):

        * ``tcp_bytes``: payload bytes that entered the merge/split
          engines minus bytes emitted minus bytes still buffered;
        * ``udp_datagrams``: datagrams in minus (out + still pending +
          discarded as malformed).

        The caller supplies the engines' live buffer occupancy
        (``merge.pending_bytes()`` / ``caravan_merge.pending_packets()``).
        """
        errors: Dict[str, int] = {}
        tcp_delta = self.tcp_payload_in - self.tcp_payload_out - pending_tcp_bytes
        if tcp_delta:
            errors["tcp_bytes"] = tcp_delta
        udp_delta = (
            self.udp_datagrams_in
            - self.udp_datagrams_out
            - pending_datagrams
            - self.udp_datagrams_malformed
        )
        if udp_delta:
            errors["udp_datagrams"] = udp_delta
        return errors

    def credit_egress(self, packets: "Iterable[Packet]", count_tx: bool = True) -> None:
        """Count *packets* a merge engine (or a checkpoint of one) let go
        as egress.  The worker's tx accounting counts ``tx_packets``
        itself, with the tx cycles, so it passes ``count_tx=False``."""
        for packet in packets:
            if count_tx:
                self.tx_packets += 1
            if packet.is_tcp:
                self.tcp_payload_out += len(packet.payload)
            elif packet.is_udp:
                self.udp_datagrams_out += caravan_inner_count(packet)
                if is_caravan(packet):
                    self.caravans_built += 1

    def merge(self, other: "GatewayStats") -> None:
        """Fold a worker's stats into this aggregate: every int field."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        histogram = self.inbound_size_histogram
        for size, count in other.inbound_size_histogram.items():
            histogram[size] = histogram.get(size, 0) + count


_COUNTERS = tuple(f.name for f in fields(GatewayStats) if f.type == "int")

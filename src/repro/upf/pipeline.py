"""The UPF datapath: GTP-U decap/encap around PDR/QER/FAR processing.

Mirrors the OMEC/BESS run-to-completion pipeline: each packet is parsed,
matched, policed, rewritten, and transmitted by one core.  Cycle charges
use :class:`repro.cpu.UpfCosts`; the 'multiple rule table lookups per
packet' the paper highlights are the ``pdr_lookup``/``far_apply``/
``qer_enforce`` charges, which dwarf the per-byte cost and make the
pipeline packet-rate bound.
"""

from __future__ import annotations

from typing import List

from ..cpu import DEFAULT_UPF_COSTS, CycleAccount
from ..packet import (
    GTPU_PORT,
    GTPUHeader,
    IPProto,
    IPv4Header,
    Packet,
    UDPHeader,
)
from ..packet.builder import next_ip_id
from ..packet.gtpu import GTPU_HEADER_LEN
from .policing import TokenBucket
from .rules import FarAction
from .session import SessionManager

__all__ = ["Upf", "UpfStats"]


class UpfStats:
    """Per-UPF counters."""

    def __init__(self):
        self.uplink_packets = 0
        self.downlink_packets = 0
        self.dropped_no_match = 0
        self.dropped_gate = 0
        self.dropped_malformed = 0
        self.dropped_mbr = 0
        self.buffered = 0


class Upf:
    """A software UPF instance bound to one N3 (RAN) address."""

    def __init__(self, n3_address: int):
        self.n3_address = n3_address
        self.sessions = SessionManager()
        self.stats = UpfStats()
        self.account = CycleAccount()
        #: Per-(seid, qer) token buckets, created lazily for QERs with
        #: an MBR configured.
        self._buckets: dict = {}

    # ------------------------------------------------------------------
    def process(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Run one packet through the pipeline; returns egress packets.

        *now* drives MBR policing; pass the simulation clock when QERs
        carry rate limits.
        """
        costs = DEFAULT_UPF_COSTS
        self._now = now
        self.account.charge(costs.rx_descriptor, category="rx")
        self.account.charge(costs.per_byte * packet.total_len,
                            mem_bytes=packet.total_len, category="dma")

        if self._is_gtpu(packet):
            out = self._uplink(packet)
        else:
            out = self._downlink(packet)
        for egress in out:
            self.account.charge(costs.tx_descriptor, category="tx")
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _is_gtpu(packet: Packet) -> bool:
        return packet.is_udp and packet.udp.dst_port == GTPU_PORT

    def _uplink(self, packet: Packet) -> List[Packet]:
        costs = DEFAULT_UPF_COSTS
        try:
            gtpu = GTPUHeader.unpack(packet.payload)
        except ValueError:
            self.stats.dropped_malformed += 1
            return []
        self.account.charge(costs.gtpu_decap, category="gtpu")

        self.account.charge(costs.pdr_lookup, category="pdr")
        match = self.sessions.lookup_uplink(gtpu.teid)
        if match is None:
            self.stats.dropped_no_match += 1
            return []
        session, pdr = match

        if not self._qer_pass(session, pdr, packet):
            return []

        self.account.charge(costs.far_apply, category="far")
        far = session.fars[pdr.far_id]
        if far.action == FarAction.DROP:
            self.stats.dropped_gate += 1
            return []
        if far.action == FarAction.BUFFER:
            self.stats.buffered += 1
            return []

        # Decap: the inner IP packet continues toward the data network.
        inner_bytes = packet.payload[GTPU_HEADER_LEN : GTPU_HEADER_LEN + gtpu.length]
        try:
            inner = Packet.from_bytes(inner_bytes, verify=False)
        except ValueError:
            self.stats.dropped_malformed += 1
            return []
        self.stats.uplink_packets += 1
        self.account.note_packet(inner.l4_payload_len)
        return [inner]

    def _downlink(self, packet: Packet) -> List[Packet]:
        costs = DEFAULT_UPF_COSTS
        self.account.charge(costs.pdr_lookup, category="pdr")
        match = self.sessions.lookup_downlink(packet.ip.dst)
        if match is None:
            self.stats.dropped_no_match += 1
            return []
        session, pdr = match

        if not self._qer_pass(session, pdr, packet):
            return []

        self.account.charge(costs.far_apply, category="far")
        far = session.fars[pdr.far_id]
        if far.action == FarAction.DROP:
            self.stats.dropped_gate += 1
            return []
        if far.action == FarAction.BUFFER:
            self.stats.buffered += 1
            return []

        self.account.charge(costs.gtpu_encap, category="gtpu")
        encapsulated = self._encap(packet, far.encap_teid, far.encap_peer_ip)
        self.stats.downlink_packets += 1
        self.account.note_packet(packet.l4_payload_len)
        return [encapsulated]

    def _qer_pass(self, session, pdr, packet: Packet) -> bool:
        if pdr.qer_id is None:
            return True
        self.account.charge(DEFAULT_UPF_COSTS.qer_enforce, category="qer")
        qer = session.qers[pdr.qer_id]
        if not qer.gate_open:
            self.stats.dropped_gate += 1
            return False
        if qer.mbr_bps is not None:
            key = (session.seid, qer.qer_id)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(qer.mbr_bps)
                self._buckets[key] = bucket
            if not bucket.allow(packet.total_len, getattr(self, "_now", 0.0)):
                self.stats.dropped_mbr += 1
                return False
        return True

    def _encap(self, packet: Packet, teid: int, gnb_ip: int) -> Packet:
        """Wrap *packet* in GTP-U/UDP/IP toward the gNB."""
        inner_bytes = packet.to_bytes()
        gtpu = GTPUHeader(teid=teid)
        payload = gtpu.pack(payload_len=len(inner_bytes)) + inner_bytes
        udp = UDPHeader(src_port=GTPU_PORT, dst_port=GTPU_PORT, length=8 + len(payload))
        ip = IPv4Header(
            src=self.n3_address,
            dst=gnb_ip,
            protocol=IPProto.UDP,
            identification=next_ip_id(),
            ttl=64,
        )
        ip.total_length = ip.header_len + 8 + len(payload)
        return Packet(ip=ip, l4=udp, payload=payload)

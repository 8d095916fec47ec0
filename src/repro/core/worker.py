"""One PXGW worker core: the full per-packet pipeline with cycle pricing.

A worker owns the flow state for the flows RSS assigns to it, so the
pipeline is lock-free.  Every packet is processed by real engine code
(merge/split/caravan/clamp); cycle and memory charges follow
:class:`repro.cpu.GatewayCosts` and the active DMA model, which is how
Figure 5's throughput numbers are produced.
"""

from __future__ import annotations

from typing import List

from ..cpu import DEFAULT_GATEWAY_COSTS, CycleAccount
from ..nic.dma import FULL_DMA, HEADER_ONLY_DMA
from ..packet import IPProto, PX_CARAVAN_TOS, Packet, TCPFlags
from .caravan import (
    CaravanMergeEngine,
    CaravanSplitEngine,
    caravan_inner_count,
    is_caravan,
)
from .config import Bound, GatewayConfig
from .flow_table import FlowTable
from .mss_clamp import MssClamp
from .stats import GatewayStats
from .tcp_merge import TcpMergeEngine
from .tcp_split import TcpSplitEngine

__all__ = ["GatewayWorker", "WorkerMode", "WorkerObserver", "STAGES", "EVENTS"]

# Module aliases for the constants the per-packet path reads.
TCP, UDP = IPProto.TCP, IPProto.UDP
SYN = TCPFlags.SYN
INBOUND, OUTBOUND = Bound.INBOUND, Bound.OUTBOUND


class WorkerMode:
    """Datapath operating modes, set by the resilience health monitor.

    * **NORMAL** — the full pipeline.
    * **DEGRADED** — stateful merging and MSS raising are off; traffic
      passes through at the eMTU it arrived with.  Splitting and
      caravan opening stay on (stateless, required for correctness).
    * **BYPASS** — everything hairpins past the classifier and flow
      state.  Only the mandatory pieces survive: the outbound MSS cap,
      the split engine, and caravan opening — without them a sick
      gateway would blackhole over-MTU packets instead of degrading.
    """

    NORMAL = "normal"
    DEGRADED = "degraded"
    BYPASS = "bypass"

    ALL = (NORMAL, DEGRADED, BYPASS)


NORMAL, BYPASS = WorkerMode.NORMAL, WorkerMode.BYPASS


#: The closed set ``on_packet``'s *stage* is drawn from.
STAGES = frozenset({
    "mss", "hairpin", "forward", "passthrough", "merge", "split",
    "caravan", "caravan-open", "malformed-caravan",
})

#: The closed set ``on_event``'s *kind* is drawn from, by emitter.
EVENTS = frozenset({
    # PXGateway: packets settled ahead of the worker, stalls
    "no-route", "untranslated", "gateway-passthrough",
    "stall", "stall-drain",
    "health-transition",  # HealthMonitor
    # FPmtudProber
    "pmtud-probe", "pmtud-report", "pmtud-report-rejected", "pmtud-timeout",
})


class WorkerObserver:
    """The one instrumentation seam; every event is a no-op here.

    A subscriber overrides what it wants and joins the ``observers``
    tuple (empty by default) of each emitter it cares about: the worker
    calls the four ``on_packet`` … ``on_retire`` methods, every other
    emitter ``on_event``.  A subscriber may read anything and must touch
    nothing: an observed run emits the same bytes as a bare one.
    """

    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs) -> None:
        """One ``process()`` call, after tx accounting.

        *ingress_at* is ``None`` unless the packet queued through a stall;
        *size* is its ingress ``total_len``; *key* / *state* are the flow
        key (``None`` without ports) and classifier state (``None`` in
        BYPASS); *stage* is one of :data:`STAGES`.  An output that ``is``
        *packet* was not buffered by the ``merge`` / ``caravan`` engine.
        """

    def on_flush(self, worker, now, flushed, batch) -> None:
        """Packets left the merge engines: at a poll boundary (*batch*) or a mode switch."""

    def on_mode(self, worker, now, old, new) -> None:
        """The worker is about to switch :class:`WorkerMode`."""

    def on_retire(self, worker, now) -> None:
        """The worker's fleet shard was lost (``GatewayFleet.fail_shard``)."""

    def on_event(self, source, now, kind, **fields) -> None:
        """Something happened off the worker's packet path.

        *source* is the emitter, *kind* one of :data:`EVENTS`; *fields*
        are fixed per kind (``docs/OBSERVABILITY.md`` → "The seam").
        """


class GatewayWorker:
    """A single-core PXGW datapath instance."""

    def __init__(self, config: GatewayConfig, index: int = 0):
        self.config = config
        self.index = index
        self.dma = HEADER_ONLY_DMA if config.header_only_dma else FULL_DMA
        #: Live on-NIC memory budget; starts at the configured value but
        #: is mutable so fault injection can model memory exhaustion.
        self.nic_memory_bytes = config.nic_memory_bytes
        self.merge = TcpMergeEngine(
            config.imtu_tcp_payload, max_contexts=config.merge_contexts_per_worker
        )
        self.split = TcpSplitEngine(config.emtu)
        self.caravan_merge = CaravanMergeEngine(
            config.imtu_udp_payload, max_contexts=config.merge_contexts_per_worker
        )
        self.caravan_split = CaravanSplitEngine()
        self.mss_clamp = MssClamp(config)
        self.flows = FlowTable(capacity=config.flow_table_capacity,
                               threshold_packets=config.elephant_threshold_packets)
        self.stats = GatewayStats()
        self.account = CycleAccount()
        self.mode = NORMAL
        # Hot-path constants, hoisted once: ``GatewayCosts`` is frozen
        # and ``GatewayConfig`` is never mutated in place (alternative
        # configs are built via ``dataclasses.replace``), so the
        # per-packet attribute chains below are pure overhead.  Every
        # cost is integral (``test_gateway_cycle_costs_are_integral``) and
        # a running total stays far below 2**53, so float sums of them are
        # exact: one add per packet gives the same bits as one add per
        # operation, in any order.  The worker keeps no cycle breakdown.
        costs = DEFAULT_GATEWAY_COSTS
        self._cost_classifier = costs.classifier_per_packet
        self._cost_slowpath = costs.rx_descriptor + costs.flow_lookup
        self._cost_hairpin = costs.hairpin_forward
        self._cost_rx = costs.rx_descriptor
        # The baseline pays software GRO instead of the lookup + append.
        self._cost_merge_in = (costs.baseline_gro_per_packet if config.baseline_gro
                               else costs.flow_lookup + costs.merge_append)
        self._cost_caravan_in = costs.flow_lookup + costs.caravan_append
        self._cost_merge_flush = costs.merge_flush
        self._cost_tx = costs.tx_descriptor
        self._header_only = config.header_only_dma
        self._hairpin_small = config.hairpin_small_flows
        self._mss_clamp_on = config.mss_clamp
        self._emtu = config.emtu
        self._imtu = config.imtu
        #: Optional live PMTU store (repro.resilience.PmtuCache); when
        #: set, outbound splits are clamped to the cached path MTU.
        self.pmtu_cache = None
        #: Optional callable ``(peer_ip, now) -> bool`` consulted before
        #: bundling datagrams toward a peer (caravan negotiation).
        self.caravan_gate = None
        #: Subscribers (:class:`WorkerObserver`) told of every packet,
        #: flush, mode change and retirement; empty by default.
        self.observers = ()

    # ------------------------------------------------------------------
    def pending(self) -> bool:
        """True while either merge engine holds unflushed payload.

        The gateway's delayed-merge flush timer keys on this.
        """
        # Counter reads, not pending_bytes()/pending_packets() calls:
        # the gateway consults this after every processed packet.
        return (
            self.merge._pending_bytes != 0
            or self.caravan_merge._pending_packets != 0
        )

    # ------------------------------------------------------------------
    def set_mode(self, mode: str, now: float) -> List[Packet]:
        """Switch datapath mode; returns packets flushed by the switch.

        Leaving NORMAL flushes every pending merge context — the
        degraded pipeline will never touch them again, and degradation
        must lose zero bytes.  The caller forwards the returned packets
        (they are inbound: only the merge engines hold state).
        """
        if mode not in WorkerMode.ALL:
            raise ValueError(f"unknown worker mode {mode!r}")
        old = self.mode
        if mode == old:
            return []
        for observer in self.observers:
            observer.on_mode(self, now, old, mode)
        self.mode = mode
        if mode == NORMAL:
            return []
        return self._flushed(self.merge.flush() + self.caravan_merge.flush(), now, False)

    def retire(self, now: float) -> None:
        """This worker's fleet shard was lost: tell the observers."""
        for observer in self.observers:
            observer.on_retire(self, now)

    # ------------------------------------------------------------------
    def process(self, packet: Packet, bound: str, now: float = 0.0,
                ingress_at: float = None) -> List[Packet]:
        """Run one packet through the pipeline; returns egress packets.

        ``ingress_at`` is when the packet reached the gateway (``None``
        means ``now``); it differs for packets re-processed after a
        stall, so an observer's residency covers the queueing too.
        """
        account = self.account
        ip = packet.ip
        proto = ip.protocol
        size = packet.total_len
        self.stats.rx_packets += 1
        account.packets += 1
        account.goodput_bytes += size
        key = packet.flow_key()
        state = None
        is_tcp = proto == TCP
        inbound = bound == INBOUND

        if self.mode == BYPASS:
            cycles = self._cost_hairpin
            stage, outputs = self._bypass(packet, bound, now, key)
        else:
            # This packet's cycles up to its stage body, which adds its own.
            cycles = 0.0
            if key is not None:
                cycles = self._cost_classifier
                state = self.flows.observe(key, size, now)
            # Handshake packets always take the slow path: MSS intervention.
            if is_tcp and packet.l4.flags & SYN:
                cycles += self._cost_slowpath
                if self._mss_clamp_on and self.mss_clamp.process(
                    packet, bound, allow_raise=self.mode == NORMAL
                ):
                    self.stats.mss_rewrites += 1
                stage, outputs = "mss", [packet]
            # Mice bypass the merge machinery via the NIC hairpin — but only
            # when the packet already conforms to the egress MTU (a jumbo
            # heading outside must still go through the split engine).
            elif (
                self._hairpin_small
                and state is not None
                and not state.is_elephant
                and not (proto == UDP and ip.tos == PX_CARAVAN_TOS)
                and (inbound or size <= self._emtu)
            ):
                cycles += self._cost_hairpin
                self.stats.hairpinned += 1
                stage, outputs = "hairpin", [packet]
            else:
                cycles += self._cost_rx
                dma = self.dma
                if self._header_only:
                    resident = (self.merge.pending_bytes()
                                + self.caravan_merge.pending_bytes())
                    if resident + size > self.nic_memory_bytes:
                        # On-NIC memory exhausted: this packet's payload
                        # must cross into host DRAM after all (§5.1's
                        # "limited NIC store" caveat).
                        dma = FULL_DMA
                        self.stats.hdo_fallbacks += 1
                    else:
                        cycles += DEFAULT_GATEWAY_COSTS.header_only_per_packet
                account.mem_bytes += dma.mem_bytes(packet, size=size)
                if is_tcp:
                    if inbound:
                        stage, outputs = self._tcp_inbound(packet, now)
                    else:
                        stage, outputs = self._tcp_outbound(packet, now, key)
                elif proto == UDP:
                    if inbound:
                        stage, outputs = self._udp_inbound(packet, now)
                    else:
                        stage, outputs = self._udp_outbound(packet)
                else:
                    # ICMP and anything else is forwarded untouched.
                    stage, outputs = "forward", [packet]

        # The one tail every path reaches; a handshake is not data.
        account.cycles += cycles + self._cost_tx * len(outputs)
        if outputs:
            self._emit(outputs, inbound and stage != "mss", packet, size)
        for observer in self.observers:
            observer.on_packet(self, now, ingress_at, packet, size, bound,
                               key, state, stage, outputs)
        return outputs

    # Stage bodies: each returns ``(stage, outputs)`` to the tail above.
    def _bypass(self, packet: Packet, bound: str, now: float, key):
        """BYPASS mode: hairpin everything, keep only mandatory work."""
        self.stats.bypassed_packets += 1
        if packet.is_tcp and packet.tcp.syn:
            # The outbound cap stays mandatory: an uncapped external
            # peer would learn an MSS the external path cannot carry.
            if self.config.mss_clamp and self.mss_clamp.process(
                packet, bound, allow_raise=False
            ):
                self.stats.mss_rewrites += 1
            return "mss", [packet]
        if packet.is_tcp:
            self.stats.tcp_payload_in += len(packet.payload)
            if bound == OUTBOUND:
                segments = self.split.process(packet, limit=self._path_limit(packet, now, key))
                self.stats.split_segments += len(segments) if len(segments) > 1 else 0
            else:
                segments = [packet]
            self.stats.tcp_payload_out += len(packet.payload)  # splitting conserves bytes
            return "split" if len(segments) > 1 else "forward", segments
        if packet.is_udp:
            self.stats.udp_datagrams_in += caravan_inner_count(packet)
            if bound == OUTBOUND and is_caravan(packet):
                return self._open_caravan(packet)
            self.stats.udp_datagrams_out += caravan_inner_count(packet)
        return "forward", [packet]

    def _path_limit(self, packet: Packet, now: float, key):
        """The live cached PMTU toward this packet's destination.

        The lookup is flow-scoped: a per-flow cache entry (hardened
        PMTU isolation across shared destination addresses) wins over
        the destination wildcard, so one flow's poisoned clamp cannot
        resize its neighbours' segments.
        """
        if self.pmtu_cache is None:
            return None
        entry = self.pmtu_cache.lookup(
            packet.ip.dst, now,
            flow=tuple(key) if key is not None else None,
        )
        return entry.pmtu if entry is not None else None

    def _tcp_inbound(self, packet: Packet, now: float):
        stats = self.stats
        stats.tcp_payload_in += len(packet.payload)
        if self.mode != NORMAL:
            # DEGRADED: stateful merging is off; pass through at eMTU.
            stats.passthrough_packets += 1
            stats.tcp_payload_out += len(packet.payload)
            return "passthrough", [packet]
        outputs = self.merge.feed(packet, now)
        self.account.cycles += self._cost_merge_in + self._cost_merge_flush * len(outputs)
        for out in outputs:
            stats.tcp_payload_out += len(out.payload)
            if out.meta.get("spliced"):
                stats.merged_packets += 1
        return "merge", outputs

    def _tcp_outbound(self, packet: Packet, now: float, key):
        costs = DEFAULT_GATEWAY_COSTS
        self.stats.tcp_payload_in += len(packet.payload)
        # Clamp to the live cached path MTU: a flow whose MSS was
        # negotiated before a PMTU drop would otherwise emit segments
        # the narrowed path silently blackholes.
        segments = self.split.process(packet, limit=self._path_limit(packet, now, key))
        cycles = costs.split_per_segment
        if self.config.baseline_gro and len(segments) > 1:
            cycles += costs.baseline_tx_per_packet  # software TSO
        self.account.cycles += cycles * len(segments)
        self.stats.split_segments += len(segments) if len(segments) > 1 else 0
        self.stats.tcp_payload_out += len(packet.payload)  # splitting conserves bytes
        return "split" if len(segments) > 1 else "forward", segments

    def _udp_inbound(self, packet: Packet, now: float):
        stats = self.stats
        # Only a packet with the caravan ToS can hold more than one datagram.
        count = caravan_inner_count(packet) if packet.ip.tos == PX_CARAVAN_TOS else 1
        stats.udp_datagrams_in += count
        bundling = self.mode == NORMAL
        if bundling and self.caravan_gate is not None and not self.caravan_gate(
            packet.ip.dst, now
        ):
            # The peer has not (yet) proven it speaks PX-caravan: plain
            # datagrams only.
            bundling = False
            stats.caravans_suppressed += 1
        if not bundling:
            if self.mode != NORMAL:
                stats.passthrough_packets += 1
            stats.udp_datagrams_out += count
            return "passthrough", [packet]
        outputs = self.caravan_merge.feed(packet, now)
        self.account.cycles += (self._cost_caravan_in
                                + DEFAULT_GATEWAY_COSTS.caravan_flush * len(outputs))
        for out in outputs:
            if out.ip.tos == PX_CARAVAN_TOS:
                stats.udp_datagrams_out += caravan_inner_count(out)
                stats.caravans_built += 1
            else:
                stats.udp_datagrams_out += 1
        return "caravan", outputs

    def _udp_outbound(self, packet: Packet):
        self.stats.udp_datagrams_in += caravan_inner_count(packet)
        if is_caravan(packet):
            return self._open_caravan(packet)
        self.stats.udp_datagrams_out += 1
        return "forward", [packet]

    def _open_caravan(self, packet: Packet):
        try:
            datagrams = self.caravan_split.process(packet)
        except ValueError:
            # A damaged bundle (truncated/garbled in transit) cannot
            # be opened; discard it rather than emit garbage.
            self.stats.malformed_caravans += 1
            self.stats.udp_datagrams_malformed += caravan_inner_count(packet)
            return "malformed-caravan", []
        self.stats.caravans_opened += 1
        self.account.cycles += DEFAULT_GATEWAY_COSTS.caravan_split_per_datagram * len(datagrams)
        self.stats.udp_datagrams_out += len(datagrams)
        return "caravan-open", datagrams

    # ------------------------------------------------------------------
    def end_batch(self, now: float) -> List[Packet]:
        """Poll-batch boundary: apply the configured flush policy.

        Returns flushed packets (always inbound: only the merge engines
        hold state).  Delayed merging only flushes contexts that have
        exceeded the merge timeout; the baseline flushes everything, as
        the DPDK GRO library does at each ``gro_timeout`` expiry.
        """
        if self.config.delayed_merge:
            flushed = self.merge.flush_older_than(now, self.config.merge_timeout)
            flushed += self.caravan_merge.flush_older_than(now, self.config.merge_timeout)
        else:
            flushed = self.merge.flush() + self.caravan_merge.flush()
        return self._flushed(flushed, now, True)

    def _flushed(self, flushed: List[Packet], now: float, batch: bool) -> List[Packet]:
        """Charge, count and announce what the engines flushed (see ``on_flush``)."""
        self.account.cycles += (self._cost_merge_flush + self._cost_tx) * len(flushed)
        self.stats.credit_egress(flushed, count_tx=False)
        self._emit(flushed, True)
        for observer in self.observers:
            observer.on_flush(self, now, flushed, batch)
        return flushed

    def _emit(self, packets: List[Packet], inbound_data: bool,
              ingress: Packet = None, size: int = 0) -> None:
        """Tx counts for *packets* about to leave the worker (the caller
        charges their tx cycles); an output that ``is`` *ingress* is
        credited its known *size*."""
        stats = self.stats
        stats.tx_packets += len(packets)
        if inbound_data:
            for out in packets:
                proto = out.ip.protocol
                if len(out.payload) > 0 if proto == TCP else proto == UDP:
                    stats.note_inbound_data_packet(
                        size if out is ingress else out.total_len, self._imtu)

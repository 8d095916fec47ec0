"""Calibrated cost constants and CPU presets.

Every absolute number in the reproduction's performance results flows
through the constants below.  They are calibrated against the paper's
own anchor measurements (and public DPDK/ConnectX-7 figures), then the
library *predicts* everything else:

Anchors used for calibration
----------------------------
* PXGW baseline (DPDK GRO library): 167 Gbps, 76 % yield on 8 cores.
* PXGW "PX": 1.09 Tbps, 93 % yield on 8 cores (memory-bandwidth bound).
* PXGW "PX + header-only DMA": 1.45 Tbps / 94 % (CPU bound again).
* Single-flow receiver with LRO+GRO at 1500 B MTU: 50.1 Gbps.
* OMEC UPF on one core: 208 Gbps at 9000 B, 5.6x the 1500 B rate.

The effective clock rates below are deliberately between base and
turbo: the packet path runs hot on a few cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import CpuSpec

__all__ = [
    "XEON_6554S",
    "XEON_5512U",
    "GatewayCosts",
    "HostCosts",
    "UpfCosts",
    "ServerCosts",
    "DEFAULT_GATEWAY_COSTS",
    "DEFAULT_HOST_COSTS",
    "DEFAULT_UPF_COSTS",
    "DEFAULT_SERVER_COSTS",
]

#: The PXGW machine: Xeon Gold 6554S (36 C), 4x ConnectX-7 400 GbE.
#: 8-channel DDR5-5600 gives ~350 GB/s of practically usable bandwidth.
XEON_6554S = CpuSpec(
    name="Xeon Gold 6554S",
    clock_hz=3.0e9,
    cores=36,
    mem_bw_bytes_per_sec=350e9,
)

#: Client/server endpoints: Xeon Gold 5512U (28 C), one ConnectX-7.
XEON_5512U = CpuSpec(
    name="Xeon Gold 5512U",
    clock_hz=2.6e9,
    cores=28,
    mem_bw_bytes_per_sec=280e9,
)


@dataclass(frozen=True)
class GatewayCosts:
    """Per-operation cycle costs on the PXGW datapath (DPDK, polling).

    The merge fast path (rx + lookup + append) is cheap because PXGW
    leans on NIC offloads; the baseline pays the full software GRO cost
    per packet instead.  Memory factors express how many times each
    payload byte crosses the DRAM bus (RX DMA write + datapath read +
    TX read ~= 2.6 with full DMA; header-only DMA leaves payloads in
    NIC memory so only headers and bookkeeping move).
    """

    rx_descriptor: float = 75.0
    tx_descriptor: float = 62.0
    flow_lookup: float = 55.0
    merge_append: float = 32.0
    merge_flush: float = 60.0
    split_per_segment: float = 45.0
    caravan_append: float = 55.0
    caravan_flush: float = 80.0
    caravan_split_per_datagram: float = 55.0
    hairpin_forward: float = 25.0
    classifier_per_packet: float = 18.0
    #: Software GRO (the DPDK GRO library baseline) per input packet.
    baseline_gro_per_packet: float = 2500.0
    baseline_tx_per_packet: float = 120.0
    #: DRAM crossings per payload byte with full scatter-gather DMA.
    mem_factor_full_dma: float = 2.6
    #: DRAM crossings per payload byte with header-only DMA.
    mem_factor_header_only: float = 0.18
    #: Extra per-packet cost of managing on-NIC memory descriptors.
    header_only_per_packet: float = 10.0


@dataclass(frozen=True)
class HostCosts:
    """End-host stack costs (Linux-stack-like, interrupt + NAPI path).

    ``driver_rx_per_packet`` is charged once per packet the *host*
    sees: per wire packet without LRO, per merged super-packet with
    LRO.  GRO adds a software merge attempt per wire packet; the stack
    cost is charged per segment delivered upward; the copy cost is per
    byte crossing to userspace.

    ``wakeup_per_segment`` is the interrupt/softirq/socket-wake cost of
    delivering a segment to a blocked reader.  Under heavy multi-flow
    load the receiver stays in NAPI polling and this cost amortizes
    away (``ReceiverConfig.busy_polling``); at one or a few fast flows
    it is paid per delivered segment and dominates — which is exactly
    why aggregation (bigger delivered segments) matters so much in
    Figures 1b/1c and much less at the 100-flow receiver of Figure 5c.
    """

    driver_rx_per_packet: float = 220.0
    gro_per_packet: float = 150.0
    stack_per_segment: float = 360.0
    wakeup_per_segment: float = 3640.0
    copy_per_byte: float = 0.33
    ack_rx_per_packet: float = 450.0
    #: UDP datagram delivery: one recvmsg per datagram, no batching.
    udp_per_datagram: float = 1000.0
    #: Parsing one inner datagram out of a PX-caravan/UDP_GRO bundle.
    caravan_parse_per_datagram: float = 50.0
    mem_factor_rx: float = 1.5


@dataclass(frozen=True)
class UpfCosts:
    """OMEC/BESS UPF pipeline costs (single-core run-to-completion).

    The UPF touches only headers, so per-byte work is almost nil and
    throughput is packet-rate bound: this is what makes Figure 1a
    nearly linear in MTU.
    """

    rx_descriptor: float = 60.0
    tx_descriptor: float = 55.0
    gtpu_decap: float = 80.0
    gtpu_encap: float = 85.0
    pdr_lookup: float = 640.0
    far_apply: float = 60.0
    qer_enforce: float = 45.0
    per_byte: float = 0.009


@dataclass(frozen=True)
class ServerCosts:
    """A file server's CPU model for the parallel-connection study (Table 1).

    Base load (per-byte copies, per-TSO-chunk stack work, per-ACK
    processing) is cycle-accounted at the offered line rate.  On top of
    that, session/connection management (epoll scanning, timer wheels,
    cache and TLB pressure) grows *sublinearly per session but steeply
    with parallel connections*: each session costs
    ``(session_overhead_frac + extra_conn_overhead_frac*(C-1)) * S**session_exponent``
    of a core, fitted to the paper's measured 1/10/100-session points.
    """

    per_byte: float = 0.33
    tso_chunk: float = 1400.0
    chunk_bytes: int = 65536
    ack_rx_per_packet: float = 120.0
    #: Fraction of one core consumed by session S=1's management.
    session_overhead_frac: float = 0.0036
    #: Additional fraction per extra parallel connection in a session.
    extra_conn_overhead_frac: float = 0.00385
    #: Superlinearity of session management with session count.
    session_exponent: float = 0.81


DEFAULT_GATEWAY_COSTS = GatewayCosts()
DEFAULT_HOST_COSTS = HostCosts()
DEFAULT_UPF_COSTS = UpfCosts()
DEFAULT_SERVER_COSTS = ServerCosts()

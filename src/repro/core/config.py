"""PXGW configuration."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GatewayConfig", "Bound"]


class Bound:
    """Which way a packet is crossing the gateway."""

    #: Entering the b-network: merge small packets up toward the iMTU.
    INBOUND = "inbound"
    #: Leaving the b-network: split large packets down to the eMTU.
    OUTBOUND = "outbound"


@dataclass(frozen=True)
class GatewayConfig:
    """Tunable behaviour of a PXGW instance.

    The defaults are the paper's "PX" configuration; flipping the
    booleans produces the ablations and the DPDK-GRO baseline:

    * ``delayed_merge=False`` flushes merge state at every poll batch
      (the baseline's behaviour, hurting conversion yield);
    * ``hairpin_small_flows=False`` sends mice through the merge engine
      (they pollute contexts and burn cycles);
    * ``header_only_dma=True`` adds the experimental on-NIC-memory
      datapath ("PX + header-only");
    * ``baseline_gro=True`` prices merging at the software-GRO cost
      instead of the offload-assisted PX fast path.
    """

    imtu: int = 9000
    emtu: int = 1500
    mss_clamp: bool = True
    delayed_merge: bool = True
    #: How long a partially filled merge context may wait for more
    #: contiguous packets before being flushed (seconds).
    merge_timeout: float = 500e-6
    hairpin_small_flows: bool = True
    #: Packets observed within the classifier window before a flow is
    #: promoted from mouse to elephant (merge-eligible).
    elephant_threshold_packets: int = 8
    header_only_dma: bool = False
    #: Usable on-NIC memory per worker for header-only DMA (payloads of
    #: packets held in merge contexts must fit; beyond it the datapath
    #: falls back to full DMA — the "experimental due to limited NIC
    #: store" caveat of §5.1).
    nic_memory_bytes: int = 2 * 1024 * 1024
    baseline_gro: bool = False
    merge_contexts_per_worker: int = 4096
    #: LRU bound on each worker's flow table.  The single-gateway
    #: default is effectively unbounded; fleet shards run much tighter
    #: tables so eviction policy (not memory growth) absorbs city-scale
    #: flow churn.
    flow_table_capacity: int = 1_000_000
    workers: int = 8
    #: How long a peer's proven caravan capability is trusted.
    caravan_positive_ttl: float = 60.0
    #: How long a silent peer stays in the caravan negative cache
    #: before re-probing (an upgraded host is re-discovered after this).
    caravan_negative_ttl: float = 5.0

    def __post_init__(self):
        if self.imtu <= self.emtu:
            raise ValueError(f"iMTU ({self.imtu}) must exceed eMTU ({self.emtu})")
        if self.emtu < 576:
            raise ValueError("eMTU below the IPv4 minimum of 576")
        if self.flow_table_capacity <= 0:
            raise ValueError("flow_table_capacity must be positive")

    @property
    def imtu_tcp_payload(self) -> int:
        """Max TCP payload inside the b-network (iMTU - IP - TCP)."""
        return self.imtu - 40

    @property
    def emtu_tcp_payload(self) -> int:
        """Max TCP payload outside (eMTU - IP - TCP)."""
        return self.emtu - 40

    @property
    def imtu_udp_payload(self) -> int:
        """Max UDP payload (incl. caravan inner headers) inside."""
        return self.imtu - 28

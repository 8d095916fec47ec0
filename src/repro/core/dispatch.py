"""Multi-core PXGW datapath: RSS sharding over gateway workers.

Flows are pinned to workers by the real Toeplitz hash, so per-worker
load imbalance (and its throughput penalty: the hottest core bounds the
system) is emergent.  This module is the entry point the Figure 5
benchmarks drive directly; the simulator-facing :class:`PXGateway`
wraps a single worker for in-topology use.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..cpu import DEFAULT_GATEWAY_COSTS, CpuSpec, CycleAccount, GatewayCosts
from ..nic.rss import RssDistributor
from ..packet import Packet
from .config import GatewayConfig
from .stats import GatewayStats
from .worker import GatewayWorker

__all__ = ["GatewayDatapath"]


class GatewayDatapath:
    """An N-worker PXGW instance processing offline packet streams."""

    def __init__(
        self,
        config: GatewayConfig,
        costs: GatewayCosts = DEFAULT_GATEWAY_COSTS,
    ):
        self.config = config
        self.costs = costs
        self.workers = [
            GatewayWorker(config, costs=costs, index=index)
            for index in range(config.workers)
        ]
        self.rss = RssDistributor(queues=config.workers)
        self._unkeyed_rr = 0
        self._virtual_now = 0.0

    # ------------------------------------------------------------------
    def worker_for(self, packet: Packet) -> GatewayWorker:
        """The worker whose queue RSS steers *packet* to."""
        key = packet.flow_key()
        if key is None:
            # Fragments/ICMP go round-robin, as NICs without a parseable
            # 4-tuple fall back to IP-pair hashing.
            self._unkeyed_rr = (self._unkeyed_rr + 1) % len(self.workers)
            return self.workers[self._unkeyed_rr]
        return self.workers[self.rss.queue_for(key)]

    def process(self, packet: Packet, bound: str, now: float = 0.0) -> List[Packet]:
        """Process one packet on its assigned worker."""
        return self.worker_for(packet).process(packet, bound, now)

    def process_stream(
        self,
        stream: Iterable[Tuple[Packet, str]],
        batch_interval: float = 1.5e-6,
        final_flush: bool = True,
    ) -> List[Packet]:
        """Process a (packet, bound) stream with periodic batch boundaries.

        ``batch_interval`` approximates the wall-clock spacing of poll
        batches at line rate (64 mixed packets every ~1.5 us at Tbps
        load); it advances a virtual clock that drives the
        delayed-merge timers.  Keep ``final_flush`` off when measuring
        steady-state yield — the artificial end-of-stream flush emits
        one partial segment per flow that a continuous run would not.
        """
        outputs: List[Packet] = []
        now = self._virtual_now
        poll_batch = self.config.poll_batch
        fill = 0
        for packet, bound in stream:
            outputs.extend(self.process(packet, bound, now))
            fill += 1
            if fill >= poll_batch:
                now += batch_interval
                fill = 0
                for worker in self.workers:
                    outputs.extend(worker.end_batch(now))
        if final_flush:
            now += self.config.merge_timeout * 2
            for worker in self.workers:
                outputs.extend(worker.end_batch(now))
        self._virtual_now = now
        return outputs

    def reset_measurement(self) -> None:
        """Zero stats and cycle accounts, keeping all datapath state.

        Benchmarks warm the flow tables and merge contexts up first,
        then reset and measure steady state.
        """
        for worker in self.workers:
            worker.stats = GatewayStats()
            worker.account = CycleAccount()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def combined_stats(self) -> GatewayStats:
        """Aggregate stats over workers."""
        total = GatewayStats()
        for worker in self.workers:
            total.merge(worker.stats)
        return total

    def combined_account(self) -> CycleAccount:
        """Aggregate cycle account over workers."""
        total = CycleAccount()
        for worker in self.workers:
            total.merge(worker.account)
        return total

    @property
    def conversion_yield(self) -> float:
        return self.combined_stats().conversion_yield

    def sustainable_throughput_bps(self, spec: CpuSpec) -> float:
        """Forwarding throughput (bits/s of IP packets) on *spec*.

        CPU bound: traffic splits across workers in the measured
        proportion, so the hottest worker's cycles-per-forwarded-byte
        bounds the system.  Memory bound: aggregate DRAM traffic is a
        shared resource.
        """
        total_bytes = sum(worker.account.goodput_bytes for worker in self.workers)
        if total_bytes == 0:
            return 0.0
        max_cycles = max(worker.account.cycles for worker in self.workers)
        cpu_bound = float("inf")
        if max_cycles > 0:
            cpu_bound = spec.clock_hz / max_cycles * total_bytes * 8
        total_mem = sum(worker.account.mem_bytes for worker in self.workers)
        mem_bound = float("inf")
        if total_mem > 0:
            mem_bound = spec.mem_bw_bytes_per_sec / total_mem * total_bytes * 8
        bound = min(cpu_bound, mem_bound)
        return 0.0 if bound == float("inf") else bound

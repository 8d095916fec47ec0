"""The one worker pool: N gateway workers behind a steering decision.

:class:`GatewayDatapath` owns what any pool of workers shares: the
slot -> worker table, the poll-batch loop with its virtual clock, and
the aggregates over the live workers.  Here flows are pinned to workers
by the real Toeplitz hash, so per-worker load imbalance (and its
throughput penalty: the hottest core bounds the system) is emergent;
this is the class the Figure 5 benchmarks drive directly.
:class:`repro.fleet.GatewayFleet` is the same pool behind rendezvous
steering (it overrides ``slot_for`` and ``live_workers``) with shard
lifecycle on top; the simulator-facing :class:`PXGateway` wraps a
single worker for in-topology use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..cpu import CpuSpec, CycleAccount
from ..nic.rss import RssDistributor
from ..packet import Packet
from .config import GatewayConfig
from .stats import GatewayStats
from .worker import GatewayWorker

__all__ = ["GatewayDatapath"]

#: Packets per poll batch: the merge-timeout clock ticks between batches.
POLL_BATCH = 64

#: Virtual time between poll batches: 64 mixed packets every ~1.5 us
#: at Tbps load.
BATCH_INTERVAL = 1.5e-6


class GatewayDatapath:
    """An N-worker PXGW instance processing offline packet streams."""

    def __init__(self, config: GatewayConfig):
        self._build_pool(config, config.workers)
        self.rss = RssDistributor(queues=config.workers)
        self._unkeyed_rr = 0

    def _build_pool(self, config: GatewayConfig, size: int) -> None:
        """What ``__init__`` shares with a subclass that sizes and steers the pool itself."""
        self.config = config
        #: The slot -> worker table.  A standby swap replaces an entry
        #: in place, so nothing may keep a worker across a poll batch.
        self.workers = [GatewayWorker(config, index=index) for index in range(size)]
        self._virtual_now = 0.0

    # ------------------------------------------------------------------
    def slot_for(self, packet: Packet, now: float = 0.0) -> int:
        """The slot whose queue RSS steers *packet* (arriving at *now*) to."""
        key = packet.flow_key()
        if key is None:
            # Fragments/ICMP go round-robin, as NICs without a parseable
            # 4-tuple fall back to IP-pair hashing.
            self._unkeyed_rr = (self._unkeyed_rr + 1) % len(self.workers)
            return self._unkeyed_rr
        return self.rss.queue_for(key)

    def live_workers(self) -> List[GatewayWorker]:
        """The workers still serving traffic (here: all of them)."""
        return self.workers

    def worker_for(self, packet: Packet) -> GatewayWorker:
        """The worker steering assigns *packet* to."""
        return self.workers[self.slot_for(packet)]

    def process(self, packet: Packet, bound: str, now: float = 0.0) -> List[Packet]:
        """Process one packet on its assigned worker."""
        return self.workers[self.slot_for(packet, now)].process(packet, bound, now)

    def end_batch(self, now: float) -> List[Packet]:
        """Poll-batch boundary on every live worker (merge-timeout flush)."""
        outputs: List[Packet] = []
        for worker in self.live_workers():
            outputs.extend(worker.end_batch(now))
        return outputs

    def process_stream(
        self,
        stream: Iterable[Tuple[Packet, str]],
        final_flush: bool = True,
        on_batch=None,
    ) -> List[Packet]:
        """Process a (packet, bound) stream with periodic batch boundaries.

        Every :data:`POLL_BATCH` packets, a virtual clock advances by
        :data:`BATCH_INTERVAL` and drives the delayed-merge timers.
        Keep ``final_flush`` off when measuring steady-state yield — the
        artificial end-of-stream flush emits one partial segment per flow
        that a continuous run would not.

        ``on_batch(batch_index, now)``, when given, fires after every
        full poll batch — the fleet chaos harness kills a shard there —
        and whatever packets it returns join the egress: that is how
        the half-merged packets a shard loss flushes reach the wire.
        """
        outputs: List[Packet] = []
        extend = outputs.extend
        now = self._virtual_now
        # Hoisted out of the packet loop; the table is still indexed
        # per packet, so a worker ``on_batch`` swaps in is seen.
        slot_for = self.slot_for
        workers = self.workers
        fill = 0
        batch_index = 0
        for packet, bound in stream:
            extend(workers[slot_for(packet, now)].process(packet, bound, now))
            fill += 1
            if fill >= POLL_BATCH:
                fill = 0
                now += BATCH_INTERVAL
                extend(self.end_batch(now))
                if on_batch is not None:
                    extend(on_batch(batch_index, now) or ())
                batch_index += 1
        if final_flush:
            now += self.config.merge_timeout * 2
            extend(self.end_batch(now))
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
    # Aggregation over the live workers
    # ------------------------------------------------------------------
    def combined_stats(self) -> GatewayStats:
        """Aggregate stats over the live workers."""
        total = GatewayStats()
        for worker in self.live_workers():
            total.merge(worker.stats)
        return total

    def combined_account(self) -> CycleAccount:
        """Aggregate cycle account over the live workers."""
        total = CycleAccount()
        for worker in self.live_workers():
            total.merge(worker.account)
        return total

    @property
    def conversion_yield(self) -> float:
        return self.combined_stats().conversion_yield

    def conservation_errors(self) -> Dict[str, int]:
        """Pool-level conservation identities (empty dict = balanced)."""
        live = self.live_workers()
        return self.combined_stats().conservation_errors(
            pending_tcp_bytes=sum(w.merge.pending_bytes() for w in live),
            pending_datagrams=sum(w.caravan_merge.pending_packets() for w in live),
        )

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

"""The horizontal gateway tier: N worker shards behind flow steering.

A :class:`GatewayFleet` *is a* :class:`repro.core.GatewayDatapath`: the
pool owns the slot -> worker table, the per-packet loop
(``process_stream`` / ``end_batch``) and the aggregates
over the live workers.  The fleet answers the pool's two questions its
own way — the rendezvous-hash :class:`~.steering.FleetSteering` stage
picks the slot, and only shards still alive are live — and gives each
worker a *bounded* flow table whose LRU eviction (capacity and idle
expiry) absorbs city-scale flow churn.

What this module owns, on top of the pool:

* **shard loss** — :meth:`~GatewayFleet.fail_shard` retires a shard
  from steering and redistributes its checkpointed flow records onto
  the survivors *that now own those flows* (the rendezvous map decides,
  so a rebalanced flow's next packet finds its state exactly where
  steering sends it).  The checkpoint's pending half-merged packets are
  flushed — never dropped — and its counters fold into a fleet-level
  retired aggregate so the conservation identities keep balancing.
* **fleet conservation** — the per-worker identities extend to the
  tier: live payload in == live payload out + still-buffered, summed
  over live shards plus the retired aggregate.

A :class:`WorkerCheckpoint` is what :meth:`~GatewayFleet.fail_shard`
reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.config import GatewayConfig
from ..core.dispatch import GatewayDatapath
from ..core.stats import GatewayStats
from ..core.worker import GatewayWorker
from ..cpu import CpuSpec
from ..packet import Packet
from .steering import FleetSteering

__all__ = ["FleetShard", "GatewayFleet", "WorkerCheckpoint", "checkpoint_worker"]


@dataclass
class WorkerCheckpoint:
    """What a lost shard leaves for the survivors."""

    #: Serialized flow records (see FlowTable.snapshot()).
    flows: List[tuple]
    #: Counter snapshot at checkpoint time.
    stats: GatewayStats
    #: Materialized copies of the pending merge/caravan contexts.
    pending: List[Packet]


def checkpoint_worker(worker: GatewayWorker) -> WorkerCheckpoint:
    """Capture *worker*'s adoptable state without perturbing it.

    The pending contexts are copied, not drained, so a checkpoint never
    changes what the running worker emits.
    """
    stats = GatewayStats()
    stats.merge(worker.stats)
    pending = worker.merge.export_pending() + worker.caravan_merge.export_pending()
    return WorkerCheckpoint(flows=worker.flows.snapshot(), stats=stats, pending=pending)


class FleetShard:
    """One fleet member: a slot of the pool plus its lifecycle state."""

    def __init__(self, pool: List[GatewayWorker], shard_id: int):
        self._pool = pool
        self.id = shard_id
        self.alive = True
        self.checkpoint: Optional[WorkerCheckpoint] = None

    @property
    def worker(self) -> GatewayWorker:
        """The worker in this shard's slot."""
        return self._pool[self.id]


class GatewayFleet(GatewayDatapath):
    """N gateway shards behind a flow-consistent steering stage."""

    def __init__(
        self,
        config: GatewayConfig,
        shards: int = 4,
        steering_seed: int = 0xF1EE7,
    ):
        if shards <= 0:
            raise ValueError("need at least one shard")
        self._build_pool(config, shards)
        self.shards = [FleetShard(self.workers, index) for index in range(shards)]
        self.steering = FleetSteering(shards, seed=steering_seed)
        #: Counters of shards that died, folded so fleet-level
        #: conservation keeps balancing after a loss.
        self.retired = GatewayStats()
        self.flows_migrated = 0

    # ------------------------------------------------------------------
    # The pool's two questions
    # ------------------------------------------------------------------
    def slot_for(self, packet: Packet) -> int:
        """The shard steering assigns to *packet*."""
        key = packet.flow_key()
        if key is None:
            return self.steering.shard_for_unkeyed()
        return self.steering.shard_for(key)

    def live_workers(self) -> List[GatewayWorker]:
        return [
            worker for worker, shard in zip(self.workers, self.shards) if shard.alive
        ]

    # ------------------------------------------------------------------
    # Checkpoints and shard loss
    # ------------------------------------------------------------------
    def checkpoint_shard(self, index: int) -> WorkerCheckpoint:
        """Capture one live shard."""
        shard = self.shards[index]
        if not shard.alive:
            raise ValueError(f"shard {index} is not alive")
        shard.checkpoint = checkpoint_worker(shard.worker)
        return shard.checkpoint

    def checkpoint_all(self) -> None:
        """Periodic fleet-wide checkpoint sweep."""
        for shard in self.shards:
            if shard.alive:
                self.checkpoint_shard(shard.id)

    def fail_shard(
        self,
        index: int,
        now: float,
        checkpoint: Optional[WorkerCheckpoint] = None,
    ) -> List[Packet]:
        """Kill shard *index* and rebalance it onto the survivors.

        Without *checkpoint* (planned maintenance / the zero-loss
        drill) the dying shard is checkpointed at this instant, so
        nothing at all is lost.  With it (the crash case, normally the
        shard's last periodic capture) traffic processed after the
        capture is not replayed; end-to-end retransmission covers the
        staleness window, as it covers any single packet loss.

        Returns the checkpoint's pending half-merged packets — the
        caller must forward them (they are flushed, never dropped).
        Flow records redistribute to whichever survivor the rendezvous
        map now assigns each flow, so affinity survives the loss.
        """
        shard = self.shards[index]
        if not shard.alive:
            raise ValueError(f"shard {index} is already dead")
        if checkpoint is None:
            checkpoint = checkpoint_worker(shard.worker)
        self.steering.remove(index)
        shard.alive = False
        # The dead shard's accounting survives in the retired aggregate:
        # the checkpoint's counters are self-consistent (payload_in
        # includes the pending bytes), and crediting the re-emitted
        # pending as egress balances it exactly.
        self.retired.merge(checkpoint.stats)
        flushed = list(checkpoint.pending)
        self.retired.credit_egress(flushed)
        # Buffered-byte spans on the dead shard settle as failover
        # closures; the survivors' trackers are untouched.
        shard.worker.retire(now)
        self._rebalance_records(checkpoint.flows)
        return flushed

    def _rebalance_records(self, records: List[tuple]) -> None:
        """Hand flow records to the shards steering now assigns them to."""
        if not records:
            return
        steering = self.steering
        buckets: Dict[int, List[tuple]] = {}
        for record in records:
            buckets.setdefault(steering.shard_for(record[0]), []).append(record)
        for target, share in buckets.items():
            self.shards[target].worker.flows.adopt(share)
        self.flows_migrated += len(records)

    # ------------------------------------------------------------------
    # Aggregation and conservation
    # ------------------------------------------------------------------
    def live_shards(self) -> List[FleetShard]:
        return [shard for shard in self.shards if shard.alive]

    def combined_stats(self) -> GatewayStats:
        """Aggregate stats: live shards plus the retired aggregate."""
        total = super().combined_stats()
        total.merge(self.retired)
        return total

    # ------------------------------------------------------------------
    # Modeled throughput
    # ------------------------------------------------------------------
    def sustainable_throughput_pps(self, spec: CpuSpec) -> float:
        """Modeled packets/s on *spec*, one core per live shard.

        Shards run on distinct cores, so wall time is the hottest
        shard's cycle demand over the clock — the paper's §1 claim that
        the most-loaded RX queue bounds the system, now at fleet scale.
        Returns 0.0 for an unmeasured fleet.
        """
        live = self.live_workers()
        if len(live) > spec.cores:
            raise ValueError(
                f"{spec.name} has {spec.cores} cores for {len(live)} live shards"
            )
        packets = sum(worker.account.packets for worker in live)
        if packets == 0:
            return 0.0
        max_cycles = max(worker.account.cycles for worker in live)
        if max_cycles <= 0:
            return 0.0
        return packets * spec.clock_hz / max_cycles

    def shard_balance(self) -> "Dict[str, float]":
        """Load-balance figures across live shards (1.0 = perfect)."""
        counts = [worker.stats.rx_packets for worker in self.live_workers()]
        total = sum(counts)
        if not counts or total == 0:
            return {"max_over_mean": 0.0, "min_over_mean": 0.0}
        mean = total / len(counts)
        return {
            "max_over_mean": max(counts) / mean,
            "min_over_mean": min(counts) / mean,
        }

"""Flow-state checkpoint and worker failover for a PXGW.

Merging makes the gateway *stateful*: at any instant a worker holds
half-merged TCP bytes and un-shipped caravan records that exist nowhere
else.  If that worker dies, those bytes die with it — a correctness
failure, not just a performance one.  The failover protocol:

1. a :class:`FailoverManager` periodically captures a
   :class:`WorkerCheckpoint` — the flow table (:meth:`FlowTable.snapshot`),
   a stats snapshot, and *materialized copies* of every pending
   merge-context (the segments the engines would emit if flushed now);
2. on :meth:`~FailoverManager.takeover`, a standby
   :class:`~repro.core.worker.GatewayWorker` adopts the checkpoint:
   flow records are restored (classifier verdicts survive, so elephants
   stay on the merge path), the stats snapshot is folded in, and the
   checkpointed pending segments are re-emitted through the gateway —
   half-merged data is *flushed, never dropped*;
3. the conservation identities hold on the standby by construction:
   the snapshot carries ``payload_in`` including the pending bytes, and
   re-emitting the pending segments supplies the matching
   ``payload_out``, leaving the standby balanced at zero buffered.

Checkpointing is non-destructive — the running worker's contexts are
copied, not drained — so a checkpoint never perturbs the datapath it
protects.  The cost of that choice is bounded staleness: traffic
processed after the last checkpoint is not replayed (PX is a
middlebox; end-to-end TCP retransmission covers the gap, exactly as it
covers any single packet loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.stats import GatewayStats
from ..core.worker import GatewayWorker
from ..packet import Packet

__all__ = ["WorkerCheckpoint", "FailoverManager", "checkpoint_worker", "restore_worker"]


@dataclass
class WorkerCheckpoint:
    """Everything a standby needs to adopt a worker's duties."""

    taken_at: float
    #: Serialized flow records (see FlowTable.snapshot()).
    flows: List[tuple]
    #: Counter snapshot at checkpoint time.
    stats: GatewayStats
    #: Materialized copies of the pending merge/caravan contexts.
    pending: List[Packet] = field(default_factory=list)
    worker_index: int = 0

    @property
    def pending_tcp_bytes(self) -> int:
        return sum(len(p.payload) for p in self.pending if p.is_tcp)

    @property
    def pending_datagrams(self) -> int:
        from ..core.caravan import caravan_inner_count

        return sum(caravan_inner_count(p) for p in self.pending if p.is_udp)


def checkpoint_worker(worker: GatewayWorker, now: float) -> WorkerCheckpoint:
    """Capture *worker*'s adoptable state without perturbing it."""
    stats = GatewayStats()
    stats.merge(worker.stats)
    pending = worker.merge.export_pending() + worker.caravan_merge.export_pending()
    return WorkerCheckpoint(
        taken_at=now,
        flows=worker.flows.snapshot(),
        stats=stats,
        pending=pending,
        worker_index=worker.index,
    )


def restore_worker(worker: GatewayWorker, checkpoint: WorkerCheckpoint) -> List[Packet]:
    """Load *checkpoint* into (standby) *worker*.

    Returns the checkpointed pending segments; the caller must forward
    them (they are the flushed half-merged data).  After this call the
    worker's conservation identities balance with empty engines.
    """
    worker.flows.restore(checkpoint.flows)
    worker.stats.merge(checkpoint.stats)
    worker.stats.credit_egress(checkpoint.pending)
    return list(checkpoint.pending)


class FailoverManager:
    """Periodic checkpoints plus standby takeover for one gateway."""

    def __init__(self, gateway, interval: float = 0.1):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.gateway = gateway
        self.sim = gateway.sim
        self.interval = interval
        self.last_checkpoint: Optional[WorkerCheckpoint] = None
        self.checkpoints_taken = 0
        self.takeovers = 0
        self._timer = None
        #: Subscribers told of every takeover (``on_event``,
        #: ``"failover-takeover"``); empty by default.
        self.observers = ()

    # ------------------------------------------------------------------
    def start(self) -> "FailoverManager":
        """Begin periodic checkpointing (first capture immediately)."""
        if self._timer is None:
            self.checkpoint_now()
            self._timer = self.sim.schedule(self.interval, self._tick)
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self.checkpoint_now()
        self._timer = self.sim.schedule(self.interval, self._tick)

    def checkpoint_now(self) -> WorkerCheckpoint:
        """Capture the live worker right now."""
        self.last_checkpoint = checkpoint_worker(self.gateway.worker, self.sim.now)
        self.checkpoints_taken += 1
        return self.last_checkpoint

    # ------------------------------------------------------------------
    def takeover(self, fresh_checkpoint: bool = True) -> GatewayWorker:
        """Swap in a fresh standby worker from the checkpoint.

        With ``fresh_checkpoint`` (the planned-maintenance case) the
        live worker is checkpointed at this instant, so nothing at all
        is lost.  Without it (the crash case) the standby resumes from
        the last periodic capture and end-to-end retransmission covers
        the staleness window.  Returns the replaced worker.
        """
        gateway = self.gateway
        checkpoint = self.checkpoint_now() if fresh_checkpoint else self.last_checkpoint
        if checkpoint is None:
            raise RuntimeError("no checkpoint available; call start() first")
        standby = GatewayWorker(gateway.config, index=gateway.worker.index + 1)
        flushed = restore_worker(standby, checkpoint)
        old = gateway.swap_worker(standby)
        for packet in flushed:
            gateway.forward(packet)
        self.takeovers += 1
        for observer in self.observers:
            observer.on_event(
                self, self.sim.now, "failover-takeover",
                gateway=gateway.name, to_worker=standby.index,
                flushed=len(flushed), reason="failover",
                checkpoint_age=self.sim.now - checkpoint.taken_at,
                flows=checkpoint.flows,
            )
        return old

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Counters for the resilience report."""
        last = self.last_checkpoint
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "takeovers": self.takeovers,
            "interval": self.interval,
            "last_checkpoint": None
            if last is None
            else {
                "taken_at": last.taken_at,
                "flows": len(last.flows),
                "pending_packets": len(last.pending),
                "pending_tcp_bytes": last.pending_tcp_bytes,
                "pending_datagrams": last.pending_datagrams,
            },
        }

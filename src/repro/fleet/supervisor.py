"""Health-driven fleet supervision: PR 2's monitors, one per shard.

The resilience layer's :class:`~repro.resilience.health.HealthMonitor`
and :class:`~repro.resilience.failover.FailoverManager` were written
against the single-gateway surface (``sim`` / ``worker`` / ``forward`` /
``swap_worker``).  Rather than fork fleet-specific variants,
:class:`ShardPort` adapts one :class:`~.fleet.FleetShard` to exactly
that surface, so the battle-tested state machines run unmodified per
shard.

:class:`FleetSupervisor` then closes the loop the issue asks for —
**rebalancing on HEALTHY → DEGRADED → BYPASS transitions**:

* each shard gets a monitor (heartbeats on a shared simulator clock)
  and a failover manager (periodic checkpoints);
* :meth:`~FleetSupervisor.reconcile` maps monitor verdicts onto
  steering membership: a shard judged BYPASS is drained (its flows
  re-steer to the survivors), a recovered shard rejoins and wins its
  flows back;
* :meth:`~FleetSupervisor.crash_shard` kills a shard from its *last
  periodic checkpoint* (the crash model: post-checkpoint work is not
  replayed, retransmission covers it), while
  :meth:`~FleetSupervisor.maintain_shard` uses a fresh checkpoint for
  a provably zero-loss planned removal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.worker import GatewayWorker
from ..packet import Packet
from ..resilience.failover import FailoverManager
from ..resilience.health import HealthMonitor, HealthPolicy, HealthState
from ..sim import Simulator
from .fleet import FleetShard, GatewayFleet

__all__ = ["ShardPort", "FleetSupervisor"]


class ShardPort:
    """Adapts one fleet shard to the gateway surface PR 2 expects.

    The resilience classes touch ``sim``, ``worker``, ``config``,
    ``name``, ``_stall_until``, ``forward`` and
    ``swap_worker`` — nothing else — so this thin port is the whole
    integration.  Forwarded packets (mode-change flushes, takeover
    re-emissions) collect in :attr:`egress` for the caller to drain.
    """

    def __init__(self, shard: FleetShard, sim: Simulator):
        self.shard = shard
        self.sim = sim
        self.name = f"fleet-shard{shard.id}"
        self.config = shard.worker.config
        #: Watchdog input: the shard's datapath is considered stalled
        #: until this simulated time (chaos/tests set it directly).
        self._stall_until = 0.0
        #: Packets the resilience layer emitted through this port.
        self.egress: List[Packet] = []

    @property
    def worker(self) -> GatewayWorker:
        return self.shard.worker

    def forward(self, packet: Packet) -> None:
        self.egress.append(packet)

    def swap_worker(self, standby: GatewayWorker) -> GatewayWorker:
        """In-shard worker replacement (keeps the observers wired)."""
        old = self.shard.worker
        standby.observers = old.observers
        old.retire(self.sim.now)
        self.shard.worker = standby
        return old

    def drain_egress(self) -> List[Packet]:
        out, self.egress = self.egress, []
        return out


class FleetSupervisor:
    """Per-shard health monitoring plus steering reconciliation."""

    def __init__(
        self,
        fleet: GatewayFleet,
        sim: Optional[Simulator] = None,
        policy: Optional[HealthPolicy] = None,
        checkpoint_interval: float = 0.1,
    ):
        self.fleet = fleet
        self.sim = sim or Simulator()
        self.policy = policy or HealthPolicy()
        self.ports = [ShardPort(shard, self.sim) for shard in fleet.shards]
        self.monitors = [HealthMonitor(port, self.policy) for port in self.ports]
        self.managers = [
            FailoverManager(port, interval=checkpoint_interval) for port in self.ports
        ]
        #: (time, shard, action) reconciliation history.
        self.actions: List[tuple] = []
        #: Subscribers told of every drain, rejoin and removal
        #: (``on_event``: ``"shard-drain"``, ``"shard-rejoin"``,
        #: ``"shard-loss"``); empty by default.
        self.observers = ()

    # ------------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Start every live shard's monitor and checkpoint manager."""
        for shard, monitor, manager in zip(
            self.fleet.shards, self.monitors, self.managers
        ):
            if shard.alive:
                monitor.start()
                manager.start()
        return self

    def stop(self) -> None:
        for monitor, manager in zip(self.monitors, self.managers):
            monitor.stop()
            manager.stop()

    def run(self, duration: float) -> None:
        """Advance the shared clock, reconciling after the quiesce."""
        self.sim.run(until=self.sim.now + duration)
        self.reconcile(self.sim.now)

    # ------------------------------------------------------------------
    def reconcile(self, now: float) -> List[tuple]:
        """Align steering membership with health verdicts.

        A live shard judged BYPASS leaves steering (drain: its flows
        re-steer and migrate to the survivors — the monitor has already
        flushed its merge state via the mode change, so nothing is
        buffered behind).  A shard back out of BYPASS rejoins and wins
        its rendezvous share back.  Returns the actions taken.
        """
        taken: List[tuple] = []
        for shard, monitor in zip(self.fleet.shards, self.monitors):
            if not shard.alive:
                continue
            bypassed = monitor.state == HealthState.BYPASS
            if bypassed and not shard.drained:
                if len(self.fleet.steering.live_shards()) > 1:
                    moved = self.fleet.drain_shard(shard.id, now)
                    taken.append((now, shard.id, f"drain:{moved}"))
                    for observer in self.observers:
                        observer.on_event(self, now, "shard-drain",
                                          shard=shard.id, moved=moved)
            elif not bypassed and shard.drained:
                returned = self.fleet.rejoin_shard(shard.id, now)
                taken.append((now, shard.id, f"rejoin:{returned}"))
                for observer in self.observers:
                    observer.on_event(self, now, "shard-rejoin",
                                      shard=shard.id, returned=returned)
        self.actions.extend(taken)
        return taken

    # ------------------------------------------------------------------
    def crash_shard(self, index: int) -> List[Packet]:
        """Kill shard *index* from its last periodic checkpoint.

        The crash model: whatever the shard did after that capture is
        gone (end-to-end retransmission covers it); the checkpoint's
        flows and pending segments rebalance onto the survivors.
        """
        manager = self.managers[index]
        self.monitors[index].stop()
        manager.stop()
        checkpoint = manager.last_checkpoint
        if checkpoint is None:
            raise RuntimeError(f"shard {index} has no checkpoint; start() first")
        flushed = self.fleet.fail_shard(index, self.sim.now, checkpoint=checkpoint)
        for observer in self.observers:
            observer.on_event(
                self, self.sim.now, "shard-loss", shard=index, mode="crash",
                flushed=len(flushed),
                checkpoint_age=self.sim.now - checkpoint.taken_at,
            )
        return flushed

    def maintain_shard(self, index: int) -> List[Packet]:
        """Planned removal: fresh checkpoint at this instant, zero loss."""
        self.monitors[index].stop()
        self.managers[index].stop()
        flushed = self.fleet.fail_shard(index, self.sim.now, checkpoint=None)
        for observer in self.observers:
            observer.on_event(self, self.sim.now, "shard-loss", shard=index,
                              mode="maintenance", flushed=len(flushed))
        return flushed

    def replace_worker(self, index: int, reason: str = "maintenance") -> GatewayWorker:
        """In-shard standby swap (shard stays in steering throughout)."""
        return self.managers[index].takeover(reason=reason)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest for the CLI and reports."""
        return {
            "shards": [
                {
                    "id": shard.id,
                    "alive": shard.alive,
                    "drained": shard.drained,
                    "health": monitor.state,
                    "beats": monitor.beats,
                    "bad_beats": monitor.bad_beats,
                    "checkpoints": manager.checkpoints_taken,
                    "takeovers": manager.takeovers,
                }
                for shard, monitor, manager in zip(
                    self.fleet.shards, self.monitors, self.managers
                )
            ],
            "actions": [list(action) for action in self.actions],
        }

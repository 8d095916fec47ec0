"""The gateway health state machine: HEALTHY → DEGRADED → BYPASS.

The paper's incremental-deployment story only works if a PXGW can
*never* take the b-network offline: a gateway that misbehaves must shed
its optional work (merging) before it sheds correctness (forwarding).
The :class:`HealthMonitor` runs a heartbeat on the simulator clock and
evaluates three signal families each beat:

* **watchdog** — the datapath was stalled at any point since the last
  beat (a worker core descheduled, a control-plane operation blocking
  the poll loop);
* **conservation** — the :class:`repro.core.GatewayStats` identities
  are violated (payload bytes or datagrams unaccounted for): the
  gateway is corrupting traffic and must stop touching it;
* **pressure** — merge-context occupancy or on-NIC memory fallbacks
  indicate the stateful machinery is thrashing.

Escalation is streak-based: ``degrade_after`` consecutive bad beats
leave HEALTHY, ``bypass_after`` consecutive bad beats escalate
DEGRADED to BYPASS; ``recover_after`` consecutive clean beats step back
*one* level at a time (BYPASS → DEGRADED → HEALTHY), so a flapping
gateway re-earns trust gradually.

What each state means for the datapath (see
:class:`repro.core.worker.WorkerMode`):

* **HEALTHY** — full pipeline: merge, caravan build, MSS raise.
* **DEGRADED** — stateful merging disabled; traffic passes through at
  the eMTU it arrived with.  Correctness is fully preserved (splitting
  and caravan opening are stateless and stay on); only the iMTU
  *benefit* is lost.
* **BYPASS** — everything hairpins: no flow state, no classifier, no
  MSS rewriting beyond the mandatory outbound cap.  The minimal
  stateless translation (split / caravan open) is retained because
  links silently drop over-MTU packets — shedding it would turn a sick
  gateway into a blackhole, the exact failure this layer exists to
  prevent.

Every transition is recorded as ``(time, from, to, reason)`` for the
``repro resilience-report`` CLI and the chaos recovery oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["HealthState", "HealthPolicy", "HealthMonitor"]


class HealthState:
    """The three gateway health levels, ordered by degradation."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    BYPASS = "bypass"

    #: Escalation order (index = severity).
    ORDER = (HEALTHY, DEGRADED, BYPASS)


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds driving the health state machine."""

    #: Seconds between watchdog beats.
    heartbeat_interval: float = 0.02
    #: Consecutive bad beats before HEALTHY degrades.
    degrade_after: int = 1
    #: Consecutive bad beats before DEGRADED escalates to BYPASS.
    bypass_after: int = 3
    #: Consecutive clean beats to step down one level.
    recover_after: int = 2
    #: Merge-context occupancy fraction considered pressure.
    context_pressure: float = 0.9
    #: Header-only-DMA fallbacks per beat considered NIC pressure.
    nic_pressure_fallbacks: int = 1

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if min(self.degrade_after, self.bypass_after, self.recover_after) < 1:
            raise ValueError("streak thresholds are 1-based")
        if not 0.0 < self.context_pressure <= 1.0:
            raise ValueError("context_pressure is an occupancy fraction")


class HealthMonitor:
    """Watchdog-driven health tracking for one :class:`PXGateway`."""

    def __init__(self, gateway, policy: Optional[HealthPolicy] = None):
        self.gateway = gateway
        self.sim = gateway.sim
        self.policy = policy or HealthPolicy()
        self.state = HealthState.HEALTHY
        #: (time, from_state, to_state, reason) history.
        self.transitions: List[Tuple[float, str, str, str]] = []
        self.beats = 0
        self.bad_beats = 0
        #: reason -> count of beats where the signal fired.
        self.signal_counts: Dict[str, int] = {}
        self._bad_streak = 0
        self._clean_streak = 0
        self._last_beat_at = self.sim.now
        self._last_hdo_fallbacks = 0
        self._timer = None
        #: Subscribers told of every transition (``on_event``,
        #: ``"health-transition"``); empty by default.
        self.observers = ()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HealthMonitor":
        """Begin heartbeats (the first fires one interval from now)."""
        if self._timer is None:
            self._last_beat_at = self.sim.now
            self._last_hdo_fallbacks = self.gateway.worker.stats.hdo_fallbacks
            self._timer = self.sim.schedule(self.policy.heartbeat_interval, self._beat)
        return self

    def stop(self) -> None:
        """Stop heartbeats; the current state is frozen."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _signals(self) -> List[str]:
        """Which bad-health signals fired since the last beat."""
        gateway = self.gateway
        worker = gateway.worker
        policy = self.policy
        reasons: List[str] = []

        # Watchdog: any stall window overlapping (last_beat, now].
        if gateway._stall_until > self._last_beat_at:
            reasons.append("stall")

        # Conservation identities: a nonzero imbalance means the
        # datapath is corrupting traffic right now.
        errors = worker.stats.conservation_errors(
            pending_tcp_bytes=worker.merge.pending_bytes(),
            pending_datagrams=worker.caravan_merge.pending_packets(),
        )
        if errors:
            reasons.append("conservation")

        # Merge-context pressure (eviction storms show up here).
        for engine in (worker.merge, worker.caravan_merge):
            if engine.max_contexts > 0 and (
                len(engine) / engine.max_contexts >= policy.context_pressure
            ):
                reasons.append("context-pressure")
                break

        # On-NIC memory pressure: header-only DMA falling back to DRAM.
        fallbacks = worker.stats.hdo_fallbacks
        if fallbacks - self._last_hdo_fallbacks >= policy.nic_pressure_fallbacks:
            reasons.append("nic-pressure")
        self._last_hdo_fallbacks = fallbacks

        return reasons

    # ------------------------------------------------------------------
    # The beat
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        policy = self.policy
        self.beats += 1
        reasons = self._signals()
        self._last_beat_at = self.sim.now

        if reasons:
            self.bad_beats += 1
            for reason in reasons:
                self.signal_counts[reason] = self.signal_counts.get(reason, 0) + 1
            self._clean_streak = 0
            self._bad_streak += 1
            if (
                self.state == HealthState.HEALTHY
                and self._bad_streak >= policy.degrade_after
            ):
                self._transition(HealthState.DEGRADED, "+".join(reasons))
            elif (
                self.state == HealthState.DEGRADED
                and self._bad_streak >= policy.bypass_after
            ):
                self._transition(HealthState.BYPASS, "+".join(reasons))
        else:
            self._bad_streak = 0
            self._clean_streak += 1
            if (
                self.state != HealthState.HEALTHY
                and self._clean_streak >= policy.recover_after
            ):
                index = HealthState.ORDER.index(self.state)
                self._transition(HealthState.ORDER[index - 1], "recovered")
                self._clean_streak = 0

        self._timer = self.sim.schedule(policy.heartbeat_interval, self._beat)

    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self.state
        self.state = to_state
        self.transitions.append((self.sim.now, from_state, to_state, reason))
        for observer in self.observers:
            observer.on_event(
                self, self.sim.now, "health-transition",
                gateway=self.gateway.name,
                from_state=from_state, to_state=to_state, reason=reason,
            )
        # Pending merge state is flushed (never dropped) on every mode
        # change away from NORMAL, so degradation loses no bytes.
        for packet in self.gateway.worker.set_mode(_MODE_FOR[to_state], self.sim.now):
            self.gateway.forward(packet)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def excursions(self) -> List[Tuple[float, Optional[float]]]:
        """Maximal [left-HEALTHY, back-to-HEALTHY] windows.

        The second element is None for an excursion still open at the
        end of the record.
        """
        out: List[Tuple[float, Optional[float]]] = []
        left_at: Optional[float] = None
        for time, from_state, to_state, _reason in self.transitions:
            if from_state == HealthState.HEALTHY and left_at is None:
                left_at = time
            if to_state == HealthState.HEALTHY and left_at is not None:
                out.append((left_at, time))
                left_at = None
        if left_at is not None:
            out.append((left_at, None))
        return out

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly digest for the resilience report."""
        return {
            "state": self.state,
            "beats": self.beats,
            "bad_beats": self.bad_beats,
            "signals": dict(sorted(self.signal_counts.items())),
            "transitions": [list(entry) for entry in self.transitions],
            "excursions": [list(window) for window in self.excursions()],
        }


# Maps health states onto worker datapath modes (import-cycle-free:
# the worker defines the mode strings, we mirror them here).
_MODE_FOR = {
    HealthState.HEALTHY: "normal",
    HealthState.DEGRADED: "degraded",
    HealthState.BYPASS: "bypass",
}

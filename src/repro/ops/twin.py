"""Twin-world deployment harness.

A canary comparison is only meaningful when the two worlds differ in
exactly one thing: the deployment.  This module builds that pair — a
baseline and a candidate :class:`Deployment` each run in its own
seeded :func:`~repro.obs.world.run_observed_world`, fed the *same*
:class:`~repro.obs.world.WorkloadSchedule` and (optionally) the same
fault/attack *environment*.  Everything environmental — topology seed,
offered load, the scheduled failover takeover, injected chaos faults —
is identical across the pair, so any divergence in alerts or registry
snapshots is attributable to the candidate.

A :class:`Deployment` is a :class:`~repro.core.GatewayConfig` plus the
operational posture that travels with it (today: whether the PMTU
cache is hardened per :class:`~repro.pmtud.HardeningPolicy`).  Each
twin also carries an :class:`OversizeTap` on the gateway→outside link:
the external wire is where an MTU mis-deployment becomes visible, as
over-eMTU transmissions or silent ``drop-mtu`` losses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..chaos.world import EMTU
from ..core import GatewayConfig
from ..obs.world import (
    ObservedWorld,
    WorkloadSchedule,
    default_workload_schedule,
    run_observed_world,
)

__all__ = ["Deployment", "OversizeTap", "TwinRun", "production_deployment",
           "run_twin", "run_twin_pair"]


@dataclass(frozen=True)
class Deployment:
    """A gateway rollout unit: config + operational posture."""

    name: str
    config: GatewayConfig
    #: Attach a hardened PMTU cache (:class:`HardeningPolicy.hardened`)
    #: instead of the historical trusting one.  Disabling this on a
    #: candidate is itself a regression the canary must catch.
    hardened_pmtud: bool = True
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hardened_pmtud": self.hardened_pmtud,
            "description": self.description,
            "config": asdict(self.config),
        }


def production_deployment() -> Deployment:
    """The stock baseline: the observed world's config, hardened."""
    return Deployment(
        name="production",
        config=GatewayConfig(
            imtu=9000, emtu=1500,
            elephant_threshold_packets=2, header_only_dma=True,
        ),
        hardened_pmtud=True,
        description="The observed world's stock PX configuration with "
                    "the hardened PMTUD posture.",
    )


class OversizeTap:
    """Counts over-eMTU egress on the external link, stamped in sim time.

    Two symptoms of a mis-sized rollout show up here: packets larger
    than the physical eMTU that the link silently drops (``drop-mtu``)
    and — if the link model were permissive — oversize transmissions.
    Both are recorded as ``(time, kind, size)`` so staged evaluation
    can count events up to each observation horizon.
    """

    def __init__(self):
        self.events: List[Tuple[float, str, int]] = []

    def __call__(self, event: str, packet, now: float) -> None:
        if event == "drop-mtu":
            self.events.append((now, "drop-mtu", packet.total_len))
        elif event == "tx" and packet.total_len > EMTU:
            self.events.append((now, "oversize-tx", packet.total_len))

    def count(self, until: Optional[float] = None) -> int:
        """Events at or before *until* (all of them when ``None``)."""
        if until is None:
            return len(self.events)
        return sum(1 for at, _, _ in self.events if at <= until)


@dataclass
class TwinRun:
    """One finished twin: the world plus its egress evidence."""

    role: str
    deployment: Deployment
    world: ObservedWorld
    oversize: OversizeTap
    _final_snapshot: Optional[dict] = field(default=None, repr=False)

    def final_snapshot(self) -> dict:
        """The end-of-run registry snapshot (cached)."""
        if self._final_snapshot is None:
            self._final_snapshot = self.world.obs.registry.snapshot()
        return self._final_snapshot

    def snapshot_at(self, instant: float, horizon: float) -> dict:
        """The registry snapshot for observation horizon *instant*.

        Mid-run horizons use the snapshots captured in-sim; a horizon
        at or past the schedule's end uses the final snapshot.
        """
        if instant >= horizon:
            return self.final_snapshot()
        return self.world.snapshots[instant]


def run_twin(
    role: str,
    deployment: Deployment,
    seed: int = 0,
    schedule: Optional[WorkloadSchedule] = None,
    snapshot_at: Sequence[float] = (),
    environment: Optional[Callable[[ObservedWorld], None]] = None,
) -> TwinRun:
    """Run one deployment in its own seeded world.

    *environment* is applied to the constructed world before traffic
    (the :func:`run_observed_world` ``mutate`` hook) — fault plans,
    attack events, anything that should hit **both** twins alike.
    """
    if schedule is None:
        schedule = default_workload_schedule(seed)
    oversize = OversizeTap()

    def mutate(world: ObservedWorld) -> None:
        if deployment.hardened_pmtud:
            from ..pmtud import HardeningPolicy
            from ..resilience import PmtuCache

            world.gateway.attach_pmtu_cache(PmtuCache(policy=HardeningPolicy.hardened()))
        world.links["ext_out"].add_tap(oversize)
        if environment is not None:
            environment(world)

    world = run_observed_world(
        seed=seed,
        config=deployment.config,
        schedule=schedule,
        snapshot_at=snapshot_at,
        mutate=mutate,
    )
    return TwinRun(role=role, deployment=deployment,
                   world=world, oversize=oversize)


def run_twin_pair(
    baseline: Deployment,
    candidate: Deployment,
    seed: int = 0,
    schedule: Optional[WorkloadSchedule] = None,
    snapshot_at: Sequence[float] = (),
    environment: Optional[Callable[[ObservedWorld], None]] = None,
) -> Tuple[TwinRun, TwinRun]:
    """Run baseline and candidate under identical conditions."""
    if schedule is None:
        schedule = default_workload_schedule(seed)
    return (
        run_twin("baseline", baseline, seed, schedule, snapshot_at, environment),
        run_twin("candidate", candidate, seed, schedule, snapshot_at, environment),
    )

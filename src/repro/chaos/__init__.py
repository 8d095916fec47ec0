"""Deterministic chaos testing for the PX datapath (guide: `docs/CHAOS.md`).

Three layers, over one world builder (:mod:`repro.chaos.world`):

* :mod:`repro.chaos.faults` — the :class:`FaultPlan` DSL: seeded,
  schedule-driven drop/duplicate/reorder/corrupt/truncate/delay faults
  on links, plus gateway-level stalls, eviction storms, and on-NIC
  memory exhaustion;
* :mod:`repro.chaos.oracle` — the :class:`InvariantOracle`: end-to-end
  invariants (TCP stream transparency, datagram-boundary preservation,
  MSS/MTU discipline, counter conservation, F-PMTUD convergence)
  checked against taps at sender, gateway ingress/egress, receiver;
* :mod:`repro.chaos.scenarios` / :mod:`repro.chaos.shrink` — seeded
  scenario execution (``run_scenario(profile, seed)`` is a pure
  function) and minimization of failing schedules.
"""

from .attacks import (
    ATTACK_SCENARIOS,
    AttackResult,
    AttackWorld,
    apply_attack_faults,
    attack_corpus,
    build_attack_plan,
    build_attack_world,
    run_attack_scenario,
    run_differential,
)
from .faults import (
    ATTACK_KINDS,
    AttackFault,
    Fault,
    FaultLog,
    FaultPlan,
    GatewayFault,
    LinkInjector,
    LyingDaemonInjector,
    Match,
    apply_gateway_faults,
)
from .oracle import ChaosTap, InvariantOracle, summarize_packet, trace_digest
from .scenarios import (
    PROFILES,
    ChaosWorld,
    ScenarioResult,
    build_plan,
    build_world,
    corpus,
    run_scenario,
)
from .shrink import ShrinkResult, shrink_plan
from .world import LinkSpec, World, WorldSpec, build

__all__ = [
    "LinkSpec",
    "WorldSpec",
    "World",
    "build",
    "Match",
    "Fault",
    "GatewayFault",
    "AttackFault",
    "ATTACK_KINDS",
    "ATTACK_SCENARIOS",
    "AttackResult",
    "AttackWorld",
    "FaultPlan",
    "FaultLog",
    "LinkInjector",
    "LyingDaemonInjector",
    "apply_gateway_faults",
    "apply_attack_faults",
    "attack_corpus",
    "build_attack_plan",
    "build_attack_world",
    "run_attack_scenario",
    "run_differential",
    "ChaosTap",
    "InvariantOracle",
    "summarize_packet",
    "trace_digest",
    "PROFILES",
    "ChaosWorld",
    "ScenarioResult",
    "build_world",
    "build_plan",
    "run_scenario",
    "corpus",
    "shrink_plan",
    "ShrinkResult",
]

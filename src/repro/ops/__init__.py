"""The production ops loop: twin-world canary deploys.

The paper's deployment story is *incremental* — PX gateways and larger
MTUs roll out gradually, and a rollout that hurts live traffic must be
caught and reversed before it spreads.  This package closes that loop
in simulation:

* :mod:`~repro.ops.twin` — run a baseline and a candidate
  :class:`Deployment` in two seeded worlds fed byte-identical offered
  load (and, optionally, identical chaos/attack environments);
* :mod:`~repro.ops.guardrails` — declarative tolerance bands over the
  twins' registry snapshots (merge ratio, drops, oversize egress,
  egress amplification, p95 residency);
* :mod:`~repro.ops.canary` — the staged rollout state machine
  ``BASELINE → CANARY(1% → 10% → 50%) → PROMOTED | ROLLED_BACK``,
  whose verdicts cite differential alert firings and guardrail
  breaches, and whose rollback is a live zero-loss failover takeover;
* :mod:`~repro.ops.incidents` — the incident-simulation corpus: five
  scripted rollout regressions that must roll back plus a benign
  candidate (under chaotic weather) that must promote.

Everything is sim-deterministic: one seed, one byte-identical JSON
report.  The ``repro canary`` CLI verb is the operator entry point.
"""

from .canary import (
    DEFAULT_STAGES,
    PROMOTED,
    ROLLED_BACK,
    CanaryController,
    RolloutStage,
    report_to_json,
)
from .guardrails import (
    Guardrail,
    default_guardrails,
    evaluate_guardrails,
    histogram_quantile,
    snapshot_indicators,
)
from .incidents import (
    INCIDENTS,
    Incident,
    incident,
    incident_names,
    run_corpus,
    run_incident,
)
from .twin import (
    Deployment,
    OversizeTap,
    TwinRun,
    production_deployment,
    run_twin,
    run_twin_pair,
)

__all__ = [
    "CanaryController",
    "DEFAULT_STAGES",
    "Deployment",
    "Guardrail",
    "INCIDENTS",
    "Incident",
    "OversizeTap",
    "PROMOTED",
    "ROLLED_BACK",
    "RolloutStage",
    "TwinRun",
    "default_guardrails",
    "evaluate_guardrails",
    "histogram_quantile",
    "incident",
    "incident_names",
    "production_deployment",
    "report_to_json",
    "run_corpus",
    "run_incident",
    "run_twin",
    "run_twin_pair",
    "snapshot_indicators",
]
